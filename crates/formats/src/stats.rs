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
//! implementation or decomposition. So there is one
//! `O(nnz)` counting scan per geometry — [`bcsr_counts`] per BCSR shape,
//! [`bcsd_counts`] per BCSD size — returning [`BlockCounts`], and the
//! padded and decomposed statistics of that geometry are derivations of
//! it ([`BlockCounts::padded`], [`BlockCounts::decomposed`]). Likewise
//! SELL-C-σ needs only the row lengths sorted per σ window
//! ([`sell_sorted_lengths`]), shared by every slice height. Ranking the
//! 129-configuration extended space therefore needs
//! 26 block scans, not one scan per configuration, when the caller keeps
//! the per-geometry results (`spmv_model::config::ArenaStats` does).
//!
//! Every estimator is exact and is verified against the materialized
//! formats by the test suite.

use spmv_core::{Csr, Index, MatrixShape, Scalar};
use spmv_kernels::BlockShape;

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

    /// Total values the format stores across submatrices.
    pub fn total_stored(&self) -> usize {
        self.stored + self.rest_nnz
    }
}

/// What one counting scan of a fixed-size block geometry (an `r x c`
/// BCSR shape or a size-`b` BCSD diagonal) finds. Every statistic of the
/// geometry's padded and decomposed formats derives from it.
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

/// One counting scan over aligned `r x c` blocks: non-empty and full
/// blocks of `shape`, without building anything.
pub fn bcsr_counts<T: Scalar>(csr: &Csr<T>, shape: BlockShape) -> BlockCounts {
    let n_brows = csr.n_rows().div_ceil(shape.rows());
    let (nb, nb_full) = bcsr_scan(csr, shape);
    BlockCounts {
        nb,
        nb_full,
        index_rows: n_brows,
    }
}

/// `(nb, nb_full)` over the block rows of `shape`, dispatched to a scan
/// compiled for the block width.
fn bcsr_scan<T: Scalar>(csr: &Csr<T>, shape: BlockShape) -> (usize, usize) {
    let r = shape.rows();
    match shape.cols() {
        1 => bcsr_scan_c::<T, 1>(csr, r, 1),
        2 => bcsr_scan_c::<T, 2>(csr, r, 2),
        3 => bcsr_scan_c::<T, 3>(csr, r, 3),
        4 => bcsr_scan_c::<T, 4>(csr, r, 4),
        5 => bcsr_scan_c::<T, 5>(csr, r, 5),
        6 => bcsr_scan_c::<T, 6>(csr, r, 6),
        7 => bcsr_scan_c::<T, 7>(csr, r, 7),
        8 => bcsr_scan_c::<T, 8>(csr, r, 8),
        c => bcsr_scan_c::<T, 0>(csr, r, c),
    }
}

/// The BCSR counting scan. `C > 0` fixes the block width at compile
/// time, so `j / c` divides by a constant; `C == 0` takes `c` at run
/// time.
///
/// Each block column keeps its stamp (the block row that last touched
/// it) and its nonzero count side by side in one slot. A block is full
/// when its count ends the block row at exactly `r * c`: counting the
/// step onto `r * c` and taking back a step past it gives that answer
/// without a second pass over the touched blocks.
fn bcsr_scan_c<T: Scalar, const C: usize>(csr: &Csr<T>, r: usize, c: usize) -> (usize, usize) {
    let c = if C > 0 { C } else { c };
    let n_rows = csr.n_rows();
    let (row_ptr, col_ind) = (csr.row_ptr(), csr.col_ind());
    let full = (r * c) as u32;
    let mut slots = vec![[u32::MAX, 0u32]; csr.n_cols().div_ceil(c)];
    let (mut nb, mut nb_full) = (0usize, 0usize);
    for rb in 0..n_rows.div_ceil(r) {
        let stamp = rb as u32;
        let lo = row_ptr[rb * r] as usize;
        let hi = row_ptr[((rb + 1) * r).min(n_rows)] as usize;
        for &j in &col_ind[lo..hi] {
            let slot = &mut slots[j as usize / c];
            if slot[0] != stamp {
                *slot = [stamp, 0];
                nb += 1;
            }
            slot[1] += 1;
            nb_full += usize::from(slot[1] == full);
            nb_full -= usize::from(slot[1] == full + 1);
        }
    }
    (nb, nb_full)
}

/// One counting scan over size-`b` diagonal blocks: non-empty and full
/// BCSD blocks, without building anything. Same slot scheme as the BCSR
/// scan, keyed by the block's biased start column `j - t + b` (row `t`
/// of its segment), which ranges over `[1, n_cols + b - 1]`.
pub fn bcsd_counts<T: Scalar>(csr: &Csr<T>, b: usize) -> BlockCounts {
    let n_rows = csr.n_rows();
    let n_segs = n_rows.div_ceil(b);
    let full = b as u32;
    let mut slots = vec![[u32::MAX, 0u32]; csr.n_cols() + b];
    let (mut nb, mut nb_full) = (0usize, 0usize);
    for s in 0..n_segs {
        let stamp = s as u32;
        for i in s * b..((s + 1) * b).min(n_rows) {
            let bias = b - (i - s * b);
            for &j in csr.row(i).0 {
                let slot = &mut slots[j as usize + bias];
                if slot[0] != stamp {
                    *slot = [stamp, 0];
                    nb += 1;
                }
                slot[1] += 1;
                nb_full += usize::from(slot[1] == full);
                nb_full -= usize::from(slot[1] == full + 1);
            }
        }
    }
    BlockCounts {
        nb,
        nb_full,
        index_rows: n_segs,
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

    #[test]
    fn width_specialized_scans_match_the_runtime_width_scan() {
        for seed in [1, 2, 13] {
            let csr = fixture(seed);
            for shape in BlockShape::search_space() {
                let (r, c) = (shape.rows(), shape.cols());
                assert_eq!(
                    bcsr_scan(&csr, shape),
                    bcsr_scan_c::<f64, 0>(&csr, r, c),
                    "shape {shape}"
                );
            }
        }
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
        // entries is not full; the counting scan takes back the step past
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
