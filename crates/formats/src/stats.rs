//! Block-structure estimators for model-driven format selection.
//!
//! The performance models (§IV) need, for every candidate
//! (format, block shape) pair: the block count `nb`, the stored-value
//! count (nonzeros + padding), and the working set `ws`. Materializing
//! every candidate format just to read those numbers would cost more than
//! the SpMV it is trying to optimize, so this module computes them
//! directly from the CSR structure — the same role the fill-ratio
//! estimators play in SPARSITY/OSKI-style autotuners.
//!
//! Those numbers depend on the block geometry alone, not on the kernel
//! implementation or decomposition, and one `O(nnz)` *lane pass* counts
//! the blocks of many geometries at once: [`bcsr_lane_counts`] every
//! BCSR height of one block width, [`bcsd_lane_counts`] every BCSD size.
//! [`bcsr_counts`] and [`bcsd_counts`] read one lane of a pass as
//! [`BlockCounts`], and the padded and decomposed statistics of a
//! geometry are derivations of that ([`BlockCounts::padded`],
//! [`BlockCounts::decomposed`]). Likewise SELL-C-σ needs only the row
//! lengths sorted per σ window ([`sell_sorted_lengths`]), shared by every
//! slice height. Ranking the 129-configuration extended space therefore
//! needs nine passes, one per block width and one over the diagonals,
//! when the caller keeps the per-pass results
//! (`spmv_model::config::ArenaStats` does).
//!
//! Every estimator is exact and is verified against the materialized
//! formats by the test suite.

use spmv_core::{Csr, Index, MatrixShape, Scalar};
use spmv_kernels::{BlockShape, MAX_BLOCK_ELEMS};

/// Exact structure statistics for one (format, block) candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FormatStats {
    /// Blocks in the blocked (main) submatrix. For CSR-as-1×1 this is the
    /// nonzero count.
    pub nb: usize,
    /// Values stored by the main submatrix, including padding zeros.
    pub stored: usize,
    /// Nonzeros relegated to the CSR remainder (decomposed formats only).
    pub rest_nnz: usize,
    /// Rows of the main structure's pointer array minus one (block rows or
    /// segments), for byte accounting.
    pub index_rows: usize,
    /// Bytes spent on padded-zero *values* in the main submatrix — the
    /// part of the value stream that carries no information. Zero for
    /// padding-free formats (decomposed mains, 1D-VBL).
    pub fill_bytes: usize,
}

impl FormatStats {
    /// Padding zeros in the main submatrix, given the source matrix's
    /// nonzero count. Saturates at zero when the statistics store fewer
    /// values than the matrix has nonzeros.
    pub fn padding(&self, nnz: usize) -> usize {
        self.stored.saturating_sub(nnz - self.rest_nnz)
    }
}

/// The blocks of one fixed-size block geometry (an `r x c` BCSR shape or
/// a size-`b` BCSD diagonal): one lane of a [`LaneCounts`]. Every
/// statistic of the geometry's padded and decomposed formats derives from
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCounts {
    /// Blocks holding at least one nonzero.
    pub nb: usize,
    /// Blocks whose every slot holds a nonzero.
    pub nb_full: usize,
    /// Block rows (BCSR) or row segments (BCSD).
    pub index_rows: usize,
}

impl BlockCounts {
    /// Padded storage (BCSR, BCSD): every non-empty block is stored
    /// whole, `elems` values each. `nnz` is the source matrix's. The fill
    /// saturates at zero, as [`FormatStats::padding`] does: a matrix that
    /// repeats a column has more nonzeros than its blocks have slots.
    pub fn padded<T: Scalar>(self, elems: usize, nnz: usize) -> FormatStats {
        let stored = self.nb * elems;
        FormatStats {
            nb: self.nb,
            stored,
            rest_nnz: 0,
            index_rows: self.index_rows,
            fill_bytes: stored.saturating_sub(nnz) * T::BYTES,
        }
    }

    /// Decomposed storage (BCSR-DEC, BCSD-DEC): the full blocks form the
    /// main submatrix, every other nonzero goes to the CSR remainder.
    pub fn decomposed(self, elems: usize, nnz: usize) -> FormatStats {
        let covered = self.nb_full * elems;
        FormatStats {
            nb: self.nb_full,
            stored: covered,
            rest_nnz: nnz - covered,
            index_rows: self.index_rows,
            fill_bytes: 0,
        }
    }
}

/// Block heights one lane pass can count: every height of a block of at
/// most [`MAX_BLOCK_ELEMS`] elements.
const LANES: usize = MAX_BLOCK_ELEMS;

/// What one lane pass finds: the [`BlockCounts`] of every block height
/// it covers, read with [`LaneCounts::height`]. Height `h` holds the
/// `h x c` BCSR blocks of a width-`c` pass ([`bcsr_lane_counts`]), or
/// the size-`h` BCSD blocks of the diagonal pass ([`bcsd_lane_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneCounts {
    nb: [usize; LANES],
    nb_full: [usize; LANES],
    heights: usize,
    n_rows: usize,
}

impl LaneCounts {
    /// The counts of the blocks `h` rows tall.
    ///
    /// # Panics
    ///
    /// Panics if the pass did not count height `h`.
    pub fn height(&self, h: usize) -> BlockCounts {
        assert!(
            (1..=self.heights).contains(&h),
            "this pass counts block heights 1..={}, not {h}",
            self.heights
        );
        BlockCounts {
            nb: self.nb[h - 1],
            nb_full: self.nb_full[h - 1],
            index_rows: self.n_rows.div_ceil(h),
        }
    }
}

/// One lane pass over the block columns of width `c`: the counts of
/// every `r x c` shape with `r * c <= 8`, without building anything.
///
/// # Panics
///
/// Panics unless `1 <= c <= 8`.
pub fn bcsr_lane_counts<T: Scalar>(csr: &Csr<T>, c: usize) -> LaneCounts {
    // Compiled per width, so `j / C` divides by a constant. Widths 1-4
    // count their two to eight heights on vector lanes; a wider block is
    // one row tall, and its pass is a plain stamp-and-count scan.
    fn pass<T: Scalar, U: Lanes, const C: usize>(csr: &Csr<T>) -> LaneCounts {
        lane_pass::<T, U>(csr, C, csr.n_cols().div_ceil(C), |_, j| j as usize / C)
    }
    match c {
        1 => pass::<T, Vector<Wide>, 1>(csr),
        2 => pass::<T, Vector<Narrow>, 2>(csr),
        3 => pass::<T, Vector<Narrow>, 3>(csr),
        4 => pass::<T, Vector<Narrow>, 4>(csr),
        5 => pass::<T, Scan, 5>(csr),
        6 => pass::<T, Scan, 6>(csr),
        7 => pass::<T, Scan, 7>(csr),
        8 => pass::<T, Scan, 8>(csr),
        _ => panic!("block width {c} is outside 1..={LANES}"),
    }
}

/// One lane pass over the diagonals `j - i`: the counts of every BCSD
/// size up to 8, without building anything. A size-`b` block of segment
/// `s` holds exactly the entries of one diagonal inside rows
/// `s*b..(s+1)*b`, so a diagonal plays the part a block column plays in
/// [`bcsr_lane_counts`].
pub fn bcsd_lane_counts<T: Scalar>(csr: &Csr<T>) -> LaneCounts {
    // Diagonal `j - i` is key `j + n_rows - i`, in `1..n_rows + n_cols`.
    let n_rows = csr.n_rows();
    lane_pass::<T, Vector<Wide>>(csr, 1, n_rows + csr.n_cols(), |i, j| {
        j as usize + n_rows - i
    })
}

/// Non-empty and full blocks of one aligned `r x c` shape: one lane of
/// [`bcsr_lane_counts`].
pub fn bcsr_counts<T: Scalar>(csr: &Csr<T>, shape: BlockShape) -> BlockCounts {
    bcsr_lane_counts(csr, shape.cols()).height(shape.rows())
}

/// Non-empty and full size-`b` diagonal blocks: one lane of
/// [`bcsd_lane_counts`].
///
/// # Panics
///
/// Panics unless `1 <= b <= 8`.
pub fn bcsd_counts<T: Scalar>(csr: &Csr<T>, b: usize) -> BlockCounts {
    bcsd_lane_counts(csr).height(b)
}

/// The lane pass: the counts of every block height at once, keyed by
/// block column or diagonal (`key(i, j)` for the entry at row `i`,
/// column `j`).
///
/// Each key's slot holds the row that last touched it and one entry
/// count per block height `h`. An entry of row `i` lies in the same
/// height-`h` block as the key's last entry exactly when the rows since
/// that entry are at most `i mod h`, both rows then being in block row
/// `i / h`. Otherwise it opens a new block, whose count restarts at 1.
/// A block is full when its count ends at exactly `h * width`: counting
/// the step onto that count and taking back a step past it gives the
/// answer without a second pass over the touched blocks, for any CSR,
/// unsorted rows and repeated columns included.
fn lane_pass<T: Scalar, U: Lanes>(
    csr: &Csr<T>,
    width: usize,
    n_keys: usize,
    key: impl Fn(usize, Index) -> usize,
) -> LaneCounts {
    let n_rows = csr.n_rows();
    assert!(
        n_rows < u32::MAX as usize,
        "{n_rows} rows overflow a row stamp"
    );
    let (row_ptr, col_ind) = (csr.row_ptr(), csr.col_ind());
    let mut slots = vec![U::Slot::EMPTY; n_keys];
    let mut lanes = U::new(width);
    let mut tally = Tally::default();
    let mut pending = 0;
    for i in 0..n_rows {
        lanes.next_row();
        let row = i as u32 + 1;
        let cols = &col_ind[row_ptr[i] as usize..row_ptr[i + 1] as usize];
        for chunk in cols.chunks(U::BATCH) {
            if pending + chunk.len() > U::BATCH {
                lanes.drain(&mut tally);
                pending = 0;
            }
            pending += chunk.len();
            for &j in chunk {
                let slot = &mut slots[key(i, j)];
                *slot = lanes.step(*slot, row);
            }
        }
    }
    lanes.drain(&mut tally);
    // Lanes past the pass's last height count nothing.
    let heights = LANES / width;
    LaneCounts {
        nb: core::array::from_fn(|h| if h < heights { tally.opened[h] } else { 0 }),
        nb_full: core::array::from_fn(|h| {
            if h < heights {
                tally.full[h] - tally.over[h]
            } else {
                0
            }
        }),
        heights,
        n_rows,
    }
}

/// A key's slot: the row after the one that last touched the key (0 when
/// none has) and the key's counts. The all-zero slot is the untouched
/// one, so a slot table starts as zeroed memory, which the allocator
/// hands out without writing it.
trait Slot: Copy {
    const EMPTY: Self;
    /// The row and the lane counts, one `u8` per lane.
    fn get(self) -> (u32, u64);
    /// The slot holding `row` and `counts`.
    fn new(row: u32, counts: u64) -> Self;
}

/// The 8-byte slot: the row in the high half, the counts of up to four
/// lanes (or the one `u32` count of [`Scan`]) in the low half.
type Narrow = u64;

/// The 16-byte slot of an eight-lane pass: the row, then the counts.
type Wide = [u64; 2];

impl Slot for Narrow {
    const EMPTY: Self = 0;
    #[inline(always)]
    fn get(self) -> (u32, u64) {
        ((self >> 32) as u32, self & u64::from(u32::MAX))
    }
    #[inline(always)]
    fn new(row: u32, counts: u64) -> Self {
        u64::from(row) << 32 | (counts & u64::from(u32::MAX))
    }
}

impl Slot for Wide {
    const EMPTY: Self = [0; 2];
    #[inline(always)]
    fn get(self) -> (u32, u64) {
        (self[0] as u32, self[1])
    }
    #[inline(always)]
    fn new(row: u32, counts: u64) -> Self {
        [u64::from(row), counts]
    }
}

/// Per-lane totals of a pass: blocks opened, counts that reached a full
/// block, and counts that stepped past one.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    opened: [usize; LANES],
    full: [usize; LANES],
    over: [usize; LANES],
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        for lane in 0..LANES {
            self.opened[lane] += other.opened[lane];
            self.full[lane] += other.full[lane];
            self.over[lane] += other.over[lane];
        }
    }
}

/// The update of one key's slot for one entry (see [`lane_pass`]). Lane
/// `h - 1` counts the blocks `h` rows tall.
trait Lanes {
    type Slot: Slot;
    /// Steps the lanes may take between two drains.
    const BATCH: usize;
    /// Lanes for blocks `width` columns wide, one row before the first.
    fn new(width: usize) -> Self;
    /// Moves every lane's row phase, `i mod h`, on to the next row.
    fn next_row(&mut self);
    /// The slot after an entry of row `row` (counted from 1) on its key.
    fn step(&mut self, slot: Self::Slot, row: u32) -> Self::Slot;
    /// Adds the steps since the last drain to `tally`.
    fn drain(&mut self, tally: &mut Tally);
}

/// The one-lane update, a stamp-and-count scan: blocks one row tall open
/// whenever the row changes. The count is the whole low half of its
/// [`Narrow`] slot, so an entry in the key's open block adds one to the
/// slot.
struct Scan {
    full: u32,
    tally: Tally,
}

impl Lanes for Scan {
    type Slot = Narrow;
    // The tally counts in `usize`.
    const BATCH: usize = usize::MAX;

    fn new(width: usize) -> Self {
        Scan {
            full: width as u32,
            tally: Tally::default(),
        }
    }

    fn next_row(&mut self) {}

    #[inline(always)]
    fn step(&mut self, slot: Narrow, row: u32) -> Narrow {
        let stamp = Narrow::new(row, 0);
        let open = slot < stamp;
        let slot = if open { stamp } else { slot } + 1;
        let count = slot as u32;
        self.tally.opened[0] += usize::from(open);
        self.tally.full[0] += usize::from(count == self.full);
        self.tally.over[0] += usize::from(count == self.full + 1);
        slot
    }

    fn drain(&mut self, tally: &mut Tally) {
        tally.add(&core::mem::take(&mut self.tally));
    }
}

/// The eight-lane update on plain integers, one lane after the other:
/// the fallback off x86-64, and the reference the SSE2 update is tested
/// against. Each count saturates at `u8::MAX`.
#[cfg(any(test, not(target_arch = "x86_64")))]
struct Portable<S> {
    phase: [u8; LANES],
    ends: [u8; LANES],
    tally: Tally,
    slot: core::marker::PhantomData<S>,
}

#[cfg(any(test, not(target_arch = "x86_64")))]
impl<S: Slot> Lanes for Portable<S> {
    type Slot = S;
    const BATCH: usize = usize::MAX;

    fn new(width: usize) -> Self {
        Portable {
            // Row -1: `(-1) mod h = h - 1`.
            phase: core::array::from_fn(|lane| lane as u8),
            ends: core::array::from_fn(|lane| ((lane + 1) * width) as u8),
            tally: Tally::default(),
            slot: core::marker::PhantomData,
        }
    }

    #[inline(always)]
    fn next_row(&mut self) {
        for (lane, phase) in self.phase.iter_mut().enumerate() {
            *phase = if usize::from(*phase) == lane {
                0
            } else {
                *phase + 1
            };
        }
    }

    #[inline(always)]
    fn step(&mut self, slot: S, row: u32) -> S {
        let (last, counts) = slot.get();
        let gap = row - last;
        let mut counts = counts.to_le_bytes();
        for (lane, count) in counts.iter_mut().enumerate() {
            if gap > u32::from(self.phase[lane]) {
                *count = 0;
                self.tally.opened[lane] += 1;
            }
            *count = count.saturating_add(1);
            self.tally.full[lane] += usize::from(*count == self.ends[lane]);
            self.tally.over[lane] += usize::from(*count == self.ends[lane] + 1);
        }
        S::new(row, u64::from_le_bytes(counts))
    }

    fn drain(&mut self, tally: &mut Tally) {
        tally.add(&core::mem::take(&mut self.tally));
    }
}

/// The multi-lane update.
#[cfg(target_arch = "x86_64")]
type Vector<S> = sse2::Sse2<S>;

/// The multi-lane update.
#[cfg(not(target_arch = "x86_64"))]
type Vector<S> = Portable<S>;

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{Lanes, Slot, Tally, LANES};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi8, _mm_adds_epu8, _mm_andnot_si128, _mm_cmpeq_epi8, _mm_cmpgt_epi8,
        _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_set_epi64x, _mm_setzero_si128, _mm_sub_epi8,
        _mm_unpackhi_epi64, _mm_unpacklo_epi64,
    };
    use core::marker::PhantomData;

    /// One `u8` per lane, lane `h - 1` holding `f(h)`.
    fn per_height(f: impl Fn(usize) -> usize) -> i64 {
        u64::from_le_bytes(core::array::from_fn(|lane| f(lane + 1) as u8)) as i64
    }

    /// `1` in each of the eight lanes.
    const ONES: i64 = 0x0101_0101_0101_0101;

    /// The eight-lane update on SSE2, bit for bit the portable one's:
    /// the lanes are the low eight bytes of a register, and a tally
    /// counts in `u8`.
    pub(super) struct Sse2<S> {
        /// `i mod h` per lane.
        phase: __m128i,
        /// `h` per lane.
        heights: __m128i,
        /// `h * width` per lane, then one more per lane in the high half.
        ends: __m128i,
        /// Blocks opened per lane since the last drain.
        opened: __m128i,
        /// Counts that reached `ends`, per lane and half, since the last
        /// drain.
        ended: __m128i,
        slot: PhantomData<S>,
    }

    impl<S: Slot> Lanes for Sse2<S> {
        type Slot = S;
        const BATCH: usize = u8::MAX as usize;

        fn new(width: usize) -> Self {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe {
                Sse2 {
                    phase: _mm_set_epi64x(0, per_height(|h| h - 1)),
                    heights: _mm_set_epi64x(0, per_height(|h| h)),
                    ends: _mm_set_epi64x(per_height(|h| h * width + 1), per_height(|h| h * width)),
                    opened: _mm_setzero_si128(),
                    ended: _mm_setzero_si128(),
                    slot: PhantomData,
                }
            }
        }

        #[inline(always)]
        fn next_row(&mut self) {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            unsafe {
                let next = _mm_add_epi8(self.phase, _mm_cvtsi64_si128(ONES));
                self.phase = _mm_andnot_si128(_mm_cmpeq_epi8(next, self.heights), next);
            }
        }

        #[inline(always)]
        fn step(&mut self, slot: S, row: u32) -> S {
            let (last, counts) = slot.get();
            // SAFETY: SSE2 is part of the x86-64 baseline.
            let counts = unsafe {
                // Phases stay below 8, so `min(gap, 8)` in every lane
                // compares as the gap does, and fits the signed byte
                // compare.
                let gap = _mm_cvtsi64_si128(i64::from((row - last).min(8)) * ONES);
                let open = _mm_cmpgt_epi8(gap, self.phase);
                let kept = _mm_andnot_si128(open, _mm_cvtsi64_si128(counts as i64));
                let counts = _mm_adds_epu8(kept, _mm_cvtsi64_si128(ONES));
                self.opened = _mm_sub_epi8(self.opened, open);
                let both = _mm_unpacklo_epi64(counts, counts);
                self.ended = _mm_sub_epi8(self.ended, _mm_cmpeq_epi8(both, self.ends));
                _mm_cvtsi128_si64(counts) as u64
            };
            S::new(row, counts)
        }

        fn drain(&mut self, tally: &mut Tally) {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            let (opened, full, over) = unsafe {
                let high = _mm_unpackhi_epi64(self.ended, self.ended);
                let bytes = |v| (_mm_cvtsi128_si64(v) as u64).to_le_bytes();
                let tallies = (bytes(self.opened), bytes(self.ended), bytes(high));
                self.opened = _mm_setzero_si128();
                self.ended = _mm_setzero_si128();
                tallies
            };
            for lane in 0..LANES {
                tally.opened[lane] += usize::from(opened[lane]);
                tally.full[lane] += usize::from(full[lane]);
                tally.over[lane] += usize::from(over[lane]);
            }
        }
    }
}

/// Counts blocks/padding for aligned BCSR without building it.
pub fn bcsr_stats<T: Scalar>(csr: &Csr<T>, shape: BlockShape) -> FormatStats {
    bcsr_counts(csr, shape).padded::<T>(shape.elems(), csr.nnz())
}

/// Counts full blocks and remainder for BCSR-DEC without building it.
pub fn bcsr_dec_stats<T: Scalar>(csr: &Csr<T>, shape: BlockShape) -> FormatStats {
    bcsr_counts(csr, shape).decomposed(shape.elems(), csr.nnz())
}

/// Counts blocks/padding for BCSD without building it.
pub fn bcsd_stats<T: Scalar>(csr: &Csr<T>, b: usize) -> FormatStats {
    bcsd_counts(csr, b).padded::<T>(b, csr.nnz())
}

/// Counts full diagonal blocks and remainder for BCSD-DEC without
/// building it.
pub fn bcsd_dec_stats<T: Scalar>(csr: &Csr<T>, b: usize) -> FormatStats {
    bcsd_counts(csr, b).decomposed(b, csr.nnz())
}

/// Counts variable-length blocks for 1D-VBL without building it.
pub fn vbl_stats<T: Scalar>(csr: &Csr<T>) -> FormatStats {
    let mut nb = 0usize;
    for i in 0..csr.n_rows() {
        let cols = csr.row(i).0;
        let mut k = 0;
        while k < cols.len() {
            let mut len = 1usize;
            while k + len < cols.len()
                && cols[k + len] == cols[k] + len as Index
                && len < crate::vbl::MAX_VBL_BLOCK
            {
                len += 1;
            }
            nb += 1;
            k += len;
        }
    }
    FormatStats {
        nb,
        stored: csr.nnz(),
        rest_nnz: 0,
        index_rows: csr.n_rows(),
        fill_bytes: 0,
    }
}

/// Counts slice-columns/padding for SELL-C-σ ([`crate::SellCSigma`])
/// without building it: rows are (virtually) sorted by descending length
/// within σ-row windows, and each slice of `c` rows stores
/// `max row length` columns. `nb` is the total slice-column count,
/// `stored = nb * c` includes padding, and `index_rows` is the slice
/// count. Only row lengths matter, so this runs in `O(n_rows log σ)`.
pub fn sellc_stats<T: Scalar>(csr: &Csr<T>, c: usize, sigma: usize) -> FormatStats {
    sellc_stats_sorted::<T>(&sell_sorted_lengths(csr, sigma), c)
}

/// The row lengths of `csr`, sorted by descending length within each
/// window of `sigma` rows ([`crate::SELL_SIGMA_FULL`] sorts globally) —
/// everything SELL-C-σ statistics depend on, for every slice height.
///
/// # Panics
///
/// Panics if `sigma == 0`.
pub fn sell_sorted_lengths<T: Scalar>(csr: &Csr<T>, sigma: usize) -> Vec<usize> {
    assert!(sigma > 0, "SELL sorting window must be at least 1");
    let n_rows = csr.n_rows();
    let sigma_eff = if sigma == crate::SELL_SIGMA_FULL {
        n_rows.max(1)
    } else {
        sigma
    };
    let mut lens: Vec<usize> = (0..n_rows).map(|i| csr.row_nnz(i)).collect();
    for w0 in (0..n_rows).step_by(sigma_eff) {
        let w1 = (w0 + sigma_eff).min(n_rows);
        lens[w0..w1].sort_unstable_by_key(|&l| core::cmp::Reverse(l));
    }
    lens
}

/// SELL-C-σ statistics for slice height `c` from the σ-sorted row
/// lengths of [`sell_sorted_lengths`]; see [`sellc_stats`].
pub fn sellc_stats_sorted<T: Scalar>(lens: &[usize], c: usize) -> FormatStats {
    let nb: usize = lens
        .chunks(c)
        .map(|slice| slice.iter().copied().max().unwrap_or(0))
        .sum();
    let nnz: usize = lens.iter().sum();
    FormatStats {
        nb,
        stored: nb * c,
        rest_nnz: 0,
        index_rows: lens.len().div_ceil(c),
        fill_bytes: (nb * c - nnz) * T::BYTES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bcsd, BcsdDec, Bcsr, BcsrDec, Vbl};
    use spmv_core::{Coo, SpMv};
    use spmv_kernels::KernelImpl;

    fn fixture(seed: u64) -> Csr<f64> {
        let mut coo = Coo::new(37, 41);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..37 {
            if i < 41 {
                let _ = coo.push(i, i, 2.0);
            }
            for _ in 0..2 + (next() as usize) % 3 {
                let j = (next() as usize) % 41;
                let _ = coo.push(i, j, 1.0);
                if j + 1 < 41 {
                    let _ = coo.push(i, j + 1, 1.0);
                }
            }
            let _ = coo.push(i, 0, 0.25);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn bcsr_stats_match_constructed_format() {
        let csr = fixture(1);
        for shape in BlockShape::search_space() {
            let est = bcsr_stats(&csr, shape);
            let real = Bcsr::from_csr(&csr, shape, KernelImpl::Scalar);
            assert_eq!(est.nb, real.n_blocks(), "shape {shape}");
            assert_eq!(est.stored, real.nnz_stored(), "shape {shape}");
        }
    }

    #[test]
    fn bcsr_dec_stats_match_constructed_format() {
        let csr = fixture(2);
        for shape in BlockShape::search_space() {
            let est = bcsr_dec_stats(&csr, shape);
            let real = BcsrDec::from_csr(&csr, shape, KernelImpl::Scalar);
            assert_eq!(est.nb, real.main().n_blocks(), "shape {shape}");
            assert_eq!(est.stored, real.main().nnz_stored(), "shape {shape}");
            assert_eq!(est.rest_nnz, real.rest().nnz(), "shape {shape}");
        }
    }

    #[test]
    fn bcsd_stats_match_constructed_format() {
        let csr = fixture(3);
        for b in spmv_kernels::BCSD_SIZES {
            let est = bcsd_stats(&csr, b);
            let real = Bcsd::from_csr(&csr, b, KernelImpl::Scalar);
            assert_eq!(est.nb, real.n_blocks(), "b {b}");
            assert_eq!(est.stored, real.nnz_stored(), "b {b}");
        }
    }

    #[test]
    fn bcsd_dec_stats_match_constructed_format() {
        let csr = fixture(4);
        for b in spmv_kernels::BCSD_SIZES {
            let est = bcsd_dec_stats(&csr, b);
            let real = BcsdDec::from_csr(&csr, b, KernelImpl::Scalar);
            assert_eq!(est.nb, real.main().n_blocks(), "b {b}");
            assert_eq!(est.rest_nnz, real.rest().nnz(), "b {b}");
        }
    }

    #[test]
    fn vbl_stats_match_constructed_format() {
        let csr = fixture(5);
        let est = vbl_stats(&csr);
        let real = Vbl::from_csr(&csr, KernelImpl::Scalar);
        assert_eq!(est.nb, real.n_blocks());
        assert_eq!(est.stored, real.nnz_stored());
    }

    #[test]
    fn sellc_stats_match_constructed_format() {
        let csr = fixture(12);
        for c in spmv_kernels::SELL_HEIGHTS {
            for sigma in crate::sell_sigmas(c) {
                let est = sellc_stats(&csr, c, sigma);
                let real = crate::SellCSigma::from_csr(&csr, c, sigma, KernelImpl::Scalar);
                assert_eq!(est.nb, real.n_blocks(), "c {c} sigma {sigma}");
                assert_eq!(est.stored, real.nnz_stored(), "c {c} sigma {sigma}");
                assert_eq!(est.index_rows, real.n_slices(), "c {c} sigma {sigma}");
                assert_eq!(est.fill_bytes, real.padding() * 8, "c {c} sigma {sigma}");
            }
        }
    }

    #[test]
    fn fill_bytes_accounts_padded_zero_values() {
        let csr = fixture(11);
        let shape = BlockShape::new(2, 3).unwrap();
        let est = bcsr_stats(&csr, shape);
        let real = Bcsr::from_csr(&csr, shape, KernelImpl::Scalar);
        assert_eq!(est.fill_bytes, real.padding() * 8);
        assert_eq!(est.fill_bytes, est.padding(csr.nnz()) * 8);
        let d = bcsd_stats(&csr, 4);
        let dreal = Bcsd::from_csr(&csr, 4, KernelImpl::Scalar);
        assert_eq!(d.fill_bytes, dreal.padding() * 8);
        // Padding-free formats report zero fill bytes.
        assert_eq!(bcsr_dec_stats(&csr, shape).fill_bytes, 0);
        assert_eq!(bcsd_dec_stats(&csr, 4).fill_bytes, 0);
        assert_eq!(vbl_stats(&csr).fill_bytes, 0);
    }

    #[test]
    fn padding_saturates_when_fewer_values_are_stored_than_nonzeros() {
        let st = FormatStats {
            nb: 1,
            stored: 2,
            rest_nnz: 0,
            index_rows: 1,
            fill_bytes: 0,
        };
        assert_eq!(st.padding(1), 1);
        assert_eq!(st.padding(3), 0);
    }

    /// Steps [`sse2::Sse2`] and [`Portable`] through the same random
    /// slots, with rows longer than a tally's batch, and requires the
    /// same slots and tallies.
    #[cfg(target_arch = "x86_64")]
    fn sse2_matches_portable<S: Slot + PartialEq + core::fmt::Debug>() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in 1..=LANES {
            let mut fast = sse2::Sse2::<S>::new(width);
            let mut portable = Portable::<S>::new(width);
            let (mut fast_tally, mut portable_tally) = (Tally::default(), Tally::default());
            let mut steps = 0;
            for row in 1..=300 {
                fast.next_row();
                portable.next_row();
                for _ in 0..next() % 300 {
                    // Last touched 0-11 rows back, or never.
                    let last = row - (next() % 12).min(u64::from(row)) as u32;
                    let counts = u64::from_le_bytes(core::array::from_fn(|_| match next() % 4 {
                        0 => 250 + (next() % 6) as u8,
                        _ => (next() % 20) as u8,
                    }));
                    let slot = S::new(last, counts);
                    assert_eq!(
                        fast.step(slot, row),
                        portable.step(slot, row),
                        "width {width}, row {row}, slot {slot:?}"
                    );
                    steps += 1;
                    if steps == sse2::Sse2::<S>::BATCH || next() % 64 == 0 {
                        fast.drain(&mut fast_tally);
                        portable.drain(&mut portable_tally);
                        steps = 0;
                    }
                }
            }
            fast.drain(&mut fast_tally);
            portable.drain(&mut portable_tally);
            assert_eq!(fast_tally, portable_tally, "width {width}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_lanes_match_the_portable_lanes() {
        sse2_matches_portable::<Wide>();
        sse2_matches_portable::<Narrow>();
    }

    #[test]
    #[should_panic(expected = "counts block heights 1..=2, not 3")]
    fn a_lane_the_pass_did_not_count_is_refused() {
        let _ = bcsr_lane_counts(&fixture(1), 3).height(3);
    }

    #[test]
    fn counts_derive_every_blocked_variant() {
        let csr = fixture(14);
        let nnz = csr.nnz();
        for shape in BlockShape::search_space() {
            let counts = bcsr_counts(&csr, shape);
            assert!(counts.nb_full <= counts.nb);
            assert_eq!(
                bcsr_stats(&csr, shape),
                counts.padded::<f64>(shape.elems(), nnz)
            );
            assert_eq!(
                bcsr_dec_stats(&csr, shape),
                counts.decomposed(shape.elems(), nnz)
            );
        }
        for b in spmv_kernels::BCSD_SIZES {
            let counts = bcsd_counts(&csr, b);
            assert!(counts.nb_full <= counts.nb);
            assert_eq!(bcsd_stats(&csr, b), counts.padded::<f64>(b, nnz));
            assert_eq!(bcsd_dec_stats(&csr, b), counts.decomposed(b, nnz));
        }
    }

    #[test]
    fn a_block_is_full_only_if_it_ends_its_row_at_exactly_r_times_c() {
        // Unchecked input may repeat a column. A 1x2 block with three
        // entries is not full; the lane pass takes back the step past
        // `r * c` instead of keeping it.
        let csr = Csr::from_raw_unchecked(2, 4, vec![0, 3, 5], vec![0, 0, 1, 2, 3], vec![1.0; 5])
            .unwrap();
        let shape = BlockShape::new(1, 2).unwrap();
        let counts = bcsr_counts(&csr, shape);
        assert_eq!((counts.nb, counts.nb_full), (2, 1));
        // Two blocks store four values for five nonzeros: no padding,
        // rather than an underflow.
        let padded = bcsr_stats(&csr, shape);
        assert_eq!((padded.stored, padded.fill_bytes), (4, 0));
        assert_eq!(padded.padding(csr.nnz()), 0);
    }

    #[test]
    fn sell_stats_derive_from_sorted_lengths() {
        let csr = fixture(15);
        for c in spmv_kernels::SELL_HEIGHTS {
            for sigma in crate::sell_sigmas(c) {
                let lens = sell_sorted_lengths(&csr, sigma);
                assert_eq!(lens.iter().sum::<usize>(), csr.nnz());
                assert_eq!(
                    sellc_stats(&csr, c, sigma),
                    sellc_stats_sorted::<f64>(&lens, c)
                );
            }
        }
    }

    #[test]
    fn csr_degenerate_case_is_consistent() {
        // 1x1 BCSR statistics coincide with CSR's nnz — the models'
        // degenerate case.
        let csr = fixture(6);
        let est = bcsr_stats(&csr, BlockShape::UNIT);
        assert_eq!(est.nb, csr.nnz());
        assert_eq!(est.stored, csr.nnz());
    }
}
