//! The one block gather behind BCSR, BCSD and their decomposed forms.
//!
//! Both families cut the matrix into bands of `h` rows (the alignment
//! rule `i % h == 0` of §II-A) and group each band's entries into
//! fixed-size blocks. They differ only in the geometry: which block an
//! entry at (row within the band, column) falls in, and which of the
//! block's slots it takes. [`bcsr_grid`] and [`bcsd_grid`] are those two
//! geometries; [`gather`] does the rest for both.

use crate::keys::KeyRows;
use spmv_core::{Csr, Index, MatrixShape, Scalar, MAX_INDEX};

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

/// A block geometry: bands of `h` rows, blocks of `size` slots, and
/// `place`, which maps an entry's (row in its band, column) to its
/// block's key, in `0..n_keys`, and its slot. The block of key `k` is
/// stored under `k * stride`.
pub(crate) struct Grid<P> {
    h: usize,
    size: usize,
    n_keys: usize,
    stride: usize,
    place: P,
}

/// BCSR's aligned grid of `r x c` blocks: an entry in row `il` of its
/// band and column `j` falls in block column `j / c`, which starts at
/// column `j - j mod c`, in slot `il * c + j mod c` (row-major).
pub(crate) fn bcsr_grid(
    n_cols: usize,
    r: usize,
    c: usize,
) -> Grid<impl Fn(usize, Index) -> (usize, usize)> {
    let ci = c as Index;
    Grid {
        h: r,
        size: r * c,
        n_keys: n_cols.div_ceil(c),
        stride: c,
        place: move |il, j| ((j / ci) as usize, il * c + (j % ci) as usize),
    }
}

/// BCSD's diagonal blocks of size `b`: an entry in row `t` of its
/// segment and column `j` lies on the diagonal that starts at column
/// `j - t`, in slot `t`. The key biases that start by `+b`, so it stays
/// unsigned at the left edge.
pub(crate) fn bcsd_grid(n_cols: usize, b: usize) -> Grid<impl Fn(usize, Index) -> (usize, usize)> {
    Grid {
        h: b,
        size: b,
        n_keys: n_cols + b,
        stride: 1,
        place: move |t, j| (j as usize + b - t, t),
    }
}

/// The entries a decomposed gather leaves out of its blocks: the arrays
/// of the CSR remainder, filled row by row.
pub(crate) struct Rest<T> {
    row_ptr: Vec<Index>,
    col_ind: Vec<Index>,
    val: Vec<T>,
}

impl<T: Scalar> Rest<T> {
    /// A remainder with no rows yet.
    pub(crate) fn new() -> Self {
        Rest {
            row_ptr: vec![0],
            col_ind: Vec::new(),
            val: Vec::new(),
        }
    }

    /// The remainder of a gather of `csr`, as CSR. Each of its rows keeps
    /// the entries of the source row that no kept block holds, in the
    /// source row's order, explicit zeros included.
    pub(crate) fn into_csr(self, csr: &Csr<T>) -> Csr<T> {
        Csr::from_raw_unchecked(
            csr.n_rows(),
            csr.n_cols(),
            self.row_ptr,
            self.col_ind,
            self.val,
        )
        .expect("a remainder keeps a subset of each row of a checked matrix")
    }
}

/// A key's table row, `[BAND, COUNT, BLOCK]`: the band that last touched
/// the key, counted from 1 so that a zeroed row is untouched (and a table
/// is zeroed memory, which the allocator hands out without writing it);
/// that band's entries under the key; and the block the key got in that
/// band, or [`DROPPED`].
type KeyRow = [u32; 3];
const BAND: usize = 0;
const COUNT: usize = 1;
const BLOCK: usize = 2;

/// The block of a key whose entries go to the remainder.
const DROPPED: u32 = u32::MAX;

/// Gathers `csr` into the blocks of `grid`.
///
/// With `rest == None` every block that holds an entry is kept and padded
/// with zeros (BCSR, BCSD). With a `rest`, only blocks with exactly
/// `size` entries are kept and every other entry goes to `rest`, in row
/// order (the decomposed forms). A clipped edge block holds fewer than
/// `size` distinct entries, so every kept block of valid input is
/// interior.
///
/// Each band counts its entries per key in a table with one row per key
/// ([`KeyRows`] ranks the keys of a matrix whose key range is too wide),
/// numbers the kept keys in ascending order, and places every entry by
/// its key's table row.
///
/// Entries that share a slot (a row that repeats a column, which only
/// `Csr::from_raw_unchecked` admits) add up: a slot that still holds zero
/// takes an entry as it is, and a nonzero slot adds it. Valid input puts
/// at most one entry in a slot, so its values, `-0.0` included, are
/// stored bit for bit. Such a slot counts once in [`Blocks::filled`].
///
/// # Panics
///
/// Panics if the block count or a block key overflows the `u32` index
/// type.
pub(crate) fn gather<T: Scalar, P: Fn(usize, Index) -> (usize, usize)>(
    csr: &Csr<T>,
    grid: &Grid<P>,
    rest: Option<&mut Rest<T>>,
) -> Blocks<T> {
    let (h, place) = (grid.h, &grid.place);
    match KeyRows::new(csr, grid.n_keys, |i, j| place(i % h, j).0) {
        KeyRows::Direct => {
            gather_rows(csr, grid, rest, grid.n_keys, |_, il, j| place(il, j), |k| k)
        }
        KeyRows::Ranked { ranks, keys } => gather_rows(
            csr,
            grid,
            rest,
            keys.len(),
            |e, il, j| (ranks[e] as usize, place(il, j).1),
            |row| keys[row],
        ),
    }
}

/// [`gather`] with a table of `n_table` rows: `locate(entry, row in band,
/// column)` gives an entry's table row and slot, `key_of(row)` the key of
/// a table row.
fn gather_rows<T: Scalar, P>(
    csr: &Csr<T>,
    grid: &Grid<P>,
    mut rest: Option<&mut Rest<T>>,
    n_table: usize,
    locate: impl Fn(usize, usize, Index) -> (usize, usize),
    key_of: impl Fn(usize) -> usize,
) -> Blocks<T> {
    let (h, size) = (grid.h, grid.size);
    let n_rows = csr.n_rows();
    let (row_ptr, col_ind, val) = (csr.row_ptr(), csr.col_ind(), csr.val());
    let mut brow_ptr: Vec<Index> = Vec::with_capacity(n_rows.div_ceil(h) + 1);
    brow_ptr.push(0);
    let (mut keys, mut bval, mut nnz, mut repeats) = (Vec::new(), Vec::new(), 0, 0);
    let mut table: Vec<KeyRow> = vec![[0; 3]; n_table];

    // Scratch reused across bands: every entry's table row and slot, the
    // table rows the band touched, and the kept columns of a row that is
    // not strictly increasing.
    let mut placed: Vec<(usize, usize)> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    let mut row_cols: Vec<Index> = Vec::new();

    for (band, lo) in (0..n_rows).step_by(h).enumerate() {
        // At most `n_rows <= u32::MAX` bands, so the stamp fits.
        let stamp = band as u32 + 1;
        let rows = lo..(lo + h).min(n_rows);
        let first = row_ptr[lo] as usize;
        placed.clear();
        touched.clear();
        for i in rows.clone() {
            let entries = row_ptr[i] as usize..row_ptr[i + 1] as usize;
            for (e, &j) in entries.clone().zip(&col_ind[entries]) {
                let (t, slot) = locate(e, i - lo, j);
                placed.push((t, slot));
                let row = &mut table[t];
                if row[BAND] != stamp {
                    *row = [stamp, 0, DROPPED];
                    touched.push(t);
                }
                row[COUNT] += 1;
            }
        }

        // Number the kept blocks in key order: only the band's distinct
        // keys are sorted.
        touched.sort_unstable();
        for &t in &touched {
            let row = &mut table[t];
            if rest.is_none() || row[COUNT] as usize == size {
                row[BLOCK] = keys.len() as u32;
                let key = key_of(t) * grid.stride;
                keys.push(Index::try_from(key).expect("block key overflows u32"));
            }
        }
        // Every block number handed out above is below `MAX_INDEX`, so
        // none of them is `DROPPED`.
        assert!(keys.len() <= MAX_INDEX, "block count overflows u32");
        bval.resize(keys.len() * size, T::ZERO);

        for i in rows {
            let entries = row_ptr[i] as usize..row_ptr[i + 1] as usize;
            let at = &placed[entries.start - first..entries.end - first];
            for ((&j, &v), &(t, slot)) in col_ind[entries.clone()]
                .iter()
                .zip(&val[entries.clone()])
                .zip(at)
            {
                let block = table[t][BLOCK];
                if block != DROPPED {
                    let s = &mut bval[block as usize * size + slot];
                    *s = if *s == T::ZERO { v } else { *s + v };
                    nnz += 1;
                } else if let Some(rest) = rest.as_deref_mut() {
                    rest.col_ind.push(j);
                    rest.val.push(v);
                }
            }
            if let Some(rest) = rest.as_deref_mut() {
                rest.row_ptr.push(rest.col_ind.len() as Index);
            }
            // Both geometries give distinct columns of a row distinct
            // slots, so only a repeated column shares one.
            let cols = &col_ind[entries];
            if !cols.is_sorted_by(|a, b| a < b) {
                row_cols.clear();
                row_cols.extend(
                    cols.iter()
                        .zip(at)
                        .filter(|(_, &(t, _))| table[t][BLOCK] != DROPPED)
                        .map(|(&j, _)| j),
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
