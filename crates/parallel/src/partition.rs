//! Static, weight-balanced row partitioning.
//!
//! "In order to assign work to threads, we have split the input matrix
//! row-wise in as many portions as threads … such that each thread is
//! assigned the same number of nonzeros. Specifically, for the case of
//! methods with padding, we also accounted for the extra zero elements
//! used for the padding" (§V-A). This module implements that scheme:
//! contiguous unit ranges (rows, block rows, or segments) balanced by a
//! weight per unit, where the weight is the *stored* element count —
//! padding included.

use core::ops::Range;
use spmv_core::{Csr, MatrixShape, Scalar};
use spmv_kernels::BlockShape;

/// Splits `0..weights.len()` into `parts` contiguous ranges whose weight
/// totals are as even as a greedy prefix scan can make them.
///
/// Every range is returned (possibly empty at the tail) so callers can
/// zip them with threads. The greedy rule assigns units to the current
/// part until its running total reaches the ideal share, then advances —
/// the same static scheme the paper uses.
///
/// # Invariants
///
/// * exactly `parts` ranges are returned;
/// * they are sorted, contiguous (`r[i].end == r[i+1].start`), start at
///   0, and end at `weights.len()` — every unit lands in exactly one
///   range;
/// * ranges may be **empty** (more parts than units, or zero-weight
///   tails); `SpmvPool::from_csr` drops empty ranges before spawning
///   threads, so a strip is never empty;
/// * no part overshoots the ideal share `total/parts` by more than one
///   unit's weight.
///
/// ```
/// use spmv_parallel::partition_units;
/// // 6 units, the heavy one (8) forces an uneven split: 8 | 2,2 | 2,2,2.
/// let ranges = partition_units(&[8, 2, 2, 2, 2, 2], 3);
/// assert_eq!(ranges, vec![0..1, 1..3, 3..6]);
/// // More parts than units: tails come back empty and must be filtered.
/// let ranges = partition_units(&[5, 5], 4);
/// assert_eq!(ranges.iter().filter(|r| !r.is_empty()).count(), 2);
/// ```
pub fn partition_units(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "at least one partition required");
    let total: u64 = weights.iter().sum();
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    for p in 0..parts {
        let mut end = start;
        if p == parts - 1 {
            // The final part takes the remainder.
            end = weights.len();
        } else {
            // Advance until the cumulative weight reaches part p's ideal
            // cumulative share.
            let target = total * (p as u64 + 1) / parts as u64;
            while end < weights.len() && acc < target {
                acc += weights[end];
                end += 1;
            }
        }
        out.push(start..end);
        start = end;
    }
    debug_assert_eq!(out.last().map(|r| r.end), Some(weights.len()));
    out
}

/// The index of a unit too heavy for any static row-granular split: the
/// (first) maximum-weight unit, iff its weight alone **exceeds** the
/// ideal share `total / parts`.
///
/// Such a unit forces the strip that holds it past the balance bound no
/// matter where the boundaries fall, so the pool's nnz-split fallback
/// shears it across workers instead (Bergmans et al., arXiv:2502.19284,
/// motivate nonzero-level splitting for exactly these rows). Returns
/// `None` for `parts <= 1` (nothing to balance against) and whenever
/// every unit fits the ideal share — i.e. for every matrix the plain
/// partition already handles well.
///
/// ```
/// use spmv_parallel::heavy_unit;
/// // One row holds 90 of 100 nonzeros: ideal share at 4 parts is 25.
/// assert_eq!(heavy_unit(&[2, 90, 3, 5], 4), Some(1));
/// assert_eq!(heavy_unit(&[25, 25, 25, 25], 4), None);
/// assert_eq!(heavy_unit(&[2, 90, 3, 5], 1), None);
/// ```
pub fn heavy_unit(weights: &[u64], parts: usize) -> Option<usize> {
    if parts <= 1 || weights.is_empty() {
        return None;
    }
    let (idx, &max) = weights.iter().enumerate().max_by_key(|&(_, &w)| w)?;
    let total: u64 = weights.iter().sum();
    // Strict inequality on the cross-multiplied form: max > total/parts
    // without integer-division truncation.
    (max as u128 * parts as u128 > total as u128).then_some(idx)
}

/// Splits `0..nnz` into `parts` contiguous, near-equal segments (sizes
/// differ by at most one, larger segments first). The segment list a
/// sheared heavy row's nonzeros are dealt to workers with; segments may
/// be empty when `parts > nnz`.
///
/// ```
/// use spmv_parallel::split_segments;
/// assert_eq!(split_segments(10, 3), vec![0..4, 4..7, 7..10]);
/// assert_eq!(split_segments(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
/// ```
pub fn split_segments(nnz: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts > 0, "at least one segment required");
    let base = nnz / parts;
    let extra = nnz % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, nnz);
    out
}

/// Converts unit ranges (units of `unit_height` rows) into row ranges,
/// clamping the final range to `n_rows`.
///
/// # Invariants
///
/// * every produced `start` is a multiple of `unit_height` — a blocked
///   strip never begins mid-block, so BCSR block rows and BCSD segments
///   are never split across threads;
/// * ends are clamped to `n_rows`, so the last strip absorbs a final
///   partial unit when `n_rows % unit_height != 0`.
///
/// ```
/// use spmv_parallel::units_to_rows;
/// // 4 units of height 3 over 10 rows: the tail clamps to 10.
/// let rows = units_to_rows(&[0..2, 2..4], 3, 10);
/// assert_eq!(rows, vec![0..6, 6..10]);
/// assert!(rows.iter().all(|r| r.start % 3 == 0));
/// ```
pub fn units_to_rows(
    unit_ranges: &[Range<usize>],
    unit_height: usize,
    n_rows: usize,
) -> Vec<Range<usize>> {
    unit_ranges
        .iter()
        .map(|r| (r.start * unit_height).min(n_rows)..(r.end * unit_height).min(n_rows))
        .collect()
}

/// The strips a pool of `parts` workers runs, and the row it shears.
///
/// `weights` holds one weight per unit of `unit_height` rows over
/// `n_rows` rows. With single-row units, the row [`heavy_unit`] finds
/// too heavy for any split is returned beside the strips and balanced
/// as weight zero: the pool empties it in its strip and spreads its
/// products over every worker. The rest is split by [`partition_units`]
/// and scaled by [`units_to_rows`]; empty strips are dropped.
///
/// ```
/// use spmv_parallel::strip_plan;
/// // Row 1 holds 90 of 100 nonzeros: sheared, the rest split 2,0,3 | 5.
/// assert_eq!(strip_plan(&[2, 90, 3, 5], 1, 4, 2), (vec![0..3, 3..4], Some(1)));
/// // Block rows of height 3 are never sheared; the empty tail is dropped.
/// assert_eq!(strip_plan(&[4, 4], 3, 5, 3), (vec![0..3, 3..5], None));
/// ```
pub fn strip_plan(
    weights: &[u64],
    unit_height: usize,
    n_rows: usize,
    parts: usize,
) -> (Vec<Range<usize>>, Option<usize>) {
    let heavy = if unit_height == 1 {
        heavy_unit(weights, parts)
    } else {
        None
    };
    let mut balanced = weights.to_vec();
    if let Some(row) = heavy {
        balanced[row] = 0;
    }
    let strips = units_to_rows(&partition_units(&balanced, parts), unit_height, n_rows)
        .into_iter()
        .filter(|r| !r.is_empty())
        .collect();
    (strips, heavy)
}

/// A copy of `csr` with row `row`'s nonzeros dropped — the row itself
/// stays (empty), so shapes and strip boundaries are unchanged. Every
/// other row keeps its arrays exactly, entry order included, so the
/// rest-matrix rows stay bitwise-identical to the original rows. The
/// pool builds its strips from this copy when [`strip_plan`] shears a
/// row.
///
/// ```
/// use spmv_core::{Coo, Csr, MatrixShape};
/// use spmv_parallel::remove_row;
/// let csr = Csr::from_coo(&Coo::from_triplets(3, 3, vec![
///     (0, 0, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 1, 4.0),
/// ]).unwrap());
/// let rest = remove_row(&csr, 1);
/// assert_eq!((rest.n_rows(), rest.nnz(), rest.row_nnz(1)), (3, 2, 0));
/// assert_eq!(rest.row(2), csr.row(2));
/// ```
pub fn remove_row<T: Scalar>(csr: &Csr<T>, row: usize) -> Csr<T> {
    let ptr = csr.row_ptr();
    let (lo, hi) = (ptr[row] as usize, ptr[row + 1] as usize);
    let row_ptr = ptr[..=row]
        .iter()
        .copied()
        .chain(ptr[row + 1..].iter().map(|&p| p - ptr[row + 1] + ptr[row]))
        .collect();
    Csr::from_raw_unchecked(
        csr.n_rows(),
        csr.n_cols(),
        row_ptr,
        [&csr.col_ind()[..lo], &csr.col_ind()[hi..]].concat(),
        [&csr.val()[..lo], &csr.val()[hi..]].concat(),
    )
    .expect("a valid CSR minus one row is valid")
}

/// Per-row weights for CSR: the nonzero count of each row
/// (`unit_height = 1`; CSR stores no padding, so weight = nnz).
///
/// ```
/// use spmv_core::{Coo, Csr};
/// use spmv_parallel::csr_unit_weights;
/// let csr = Csr::from_coo(&Coo::from_triplets(3, 3, vec![
///     (0, 0, 1.0), (0, 1, 1.0), (2, 2, 1.0),
/// ]).unwrap());
/// assert_eq!(csr_unit_weights(&csr), vec![2, 0, 1]);
/// ```
pub fn csr_unit_weights<T: Scalar>(csr: &Csr<T>) -> Vec<u64> {
    (0..csr.n_rows()).map(|i| csr.row_nnz(i) as u64).collect()
}

/// Per-block-row weights for BCSR: stored elements including padding
/// (`blocks_in_block_row * r * c`). Partitioning block rows keeps strip
/// boundaries aligned, so no block is ever split across threads.
///
/// # Invariants
///
/// * one weight per block row (`unit_height = shape.rows()`), i.e.
///   `ceil(n_rows / r)` weights;
/// * each weight counts **stored** elements — `r·c` per touched block —
///   so it is always ≥ the raw nonzero count of those rows (§V-A: "we
///   also accounted for the extra zero elements used for the padding").
///
/// ```
/// use spmv_core::{Coo, Csr};
/// use spmv_kernels::BlockShape;
/// use spmv_parallel::bcsr_unit_weights;
/// // One lone nonzero per 2x4 block row still weighs a full 8-element block.
/// let csr = Csr::from_coo(&Coo::from_triplets(4, 8, vec![
///     (0, 0, 1.0), (2, 5, 1.0),
/// ]).unwrap());
/// let w = bcsr_unit_weights(&csr, BlockShape::new(2, 4).unwrap());
/// assert_eq!(w, vec![8, 8]);
/// ```
pub fn bcsr_unit_weights<T: Scalar>(csr: &Csr<T>, shape: BlockShape) -> Vec<u64> {
    let (r, c) = (shape.rows(), shape.cols());
    let n_rows = csr.n_rows();
    let n_brows = n_rows.div_ceil(r);
    let n_bcols = csr.n_cols().div_ceil(c);
    let mut seen = vec![u32::MAX; n_bcols];
    let mut weights = vec![0u64; n_brows];
    for (rb, w) in weights.iter_mut().enumerate() {
        let stamp = rb as u32;
        let mut nb = 0u64;
        for i in rb * r..((rb + 1) * r).min(n_rows) {
            for &j in csr.row(i).0 {
                let bc = j as usize / c;
                if seen[bc] != stamp {
                    seen[bc] = stamp;
                    nb += 1;
                }
            }
        }
        *w = nb * (r * c) as u64;
    }
    weights
}

/// Per-segment weights for BCSD: stored elements including padding
/// (`blocks_in_segment * b`).
///
/// # Invariants
///
/// * one weight per height-`b` row segment (`unit_height = b`), i.e.
///   `ceil(n_rows / b)` weights;
/// * each weight counts stored elements — `b` per touched diagonal,
///   including diagonals clipped by the matrix edge — so, like
///   [`bcsr_unit_weights`], it dominates the raw nonzero count.
///
/// ```
/// use spmv_core::{Coo, Csr};
/// use spmv_parallel::bcsd_unit_weights;
/// // Two nonzeros on the same diagonal of one segment: one block of 2.
/// let csr = Csr::from_coo(&Coo::from_triplets(2, 4, vec![
///     (0, 1, 1.0), (1, 2, 1.0),
/// ]).unwrap());
/// assert_eq!(bcsd_unit_weights(&csr, 2), vec![2]);
/// ```
pub fn bcsd_unit_weights<T: Scalar>(csr: &Csr<T>, b: usize) -> Vec<u64> {
    let n_rows = csr.n_rows();
    let n_segs = n_rows.div_ceil(b);
    let mut seen = vec![u32::MAX; csr.n_cols() + b];
    let mut weights = vec![0u64; n_segs];
    for (s, w) in weights.iter_mut().enumerate() {
        let stamp = s as u32;
        let mut nb = 0u64;
        for i in s * b..((s + 1) * b).min(n_rows) {
            let t = i - s * b;
            for &j in csr.row(i).0 {
                let biased = (j as i64 - t as i64 + b as i64) as usize;
                if seen[biased] != stamp {
                    seen[biased] = stamp;
                    nb += 1;
                }
            }
        }
        *w = nb * b as u64;
    }
    weights
}

/// Per-unit weights for SELL-C-σ: stored elements including padding for
/// each unit of `c` consecutive rows (`c * max row nnz` in the unit).
///
/// Strips partitioned on these units start at multiples of `c`, so each
/// worker's local SELL conversion (with its own σ windows and row
/// permutation over its contiguous strip) begins on a slice boundary.
/// The weight assumes the unit becomes one slice of width
/// `max row nnz`; a strip's σ-windowed sort can only narrow its slices
/// further, so this is a conservative (≥ stored) balancing estimate.
///
/// ```
/// use spmv_core::{Coo, Csr};
/// use spmv_parallel::sell_unit_weights;
/// // Rows of length 3 and 1 share a 2-row slice: both pad to width 3.
/// let csr = Csr::from_coo(&Coo::from_triplets(3, 4, vec![
///     (0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 0, 1.0),
/// ]).unwrap());
/// assert_eq!(sell_unit_weights(&csr, 2), vec![6, 2]);
/// ```
pub fn sell_unit_weights<T: Scalar>(csr: &Csr<T>, c: usize) -> Vec<u64> {
    let n_rows = csr.n_rows();
    let n_units = n_rows.div_ceil(c);
    let mut weights = vec![0u64; n_units];
    for (u, w) in weights.iter_mut().enumerate() {
        let width = (u * c..((u + 1) * c).min(n_rows))
            .map(|i| csr.row_nnz(i))
            .max()
            .unwrap_or(0);
        *w = (width * c) as u64;
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    #[test]
    fn partitions_cover_everything_contiguously() {
        let w = vec![1u64; 100];
        for parts in 1..=7 {
            let ranges = partition_units(&w, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, 100);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let w = vec![1u64; 100];
        let ranges = partition_units(&w, 4);
        for r in &ranges {
            assert_eq!(r.len(), 25);
        }
    }

    #[test]
    fn skewed_weights_balance_by_weight_not_count() {
        // First 10 units carry all the weight.
        let mut w = vec![0u64; 100];
        for v in w.iter_mut().take(10) {
            *v = 100;
        }
        let ranges = partition_units(&w, 2);
        let first: u64 = w[ranges[0].clone()].iter().sum();
        let second: u64 = w[ranges[1].clone()].iter().sum();
        assert!(first.abs_diff(second) <= 100, "{first} vs {second}");
    }

    #[test]
    fn single_partition_takes_all() {
        let ranges = partition_units(&[3, 1, 4], 1);
        assert_eq!(ranges, vec![0..3]);
    }

    #[test]
    fn more_parts_than_units_yields_empty_tails() {
        let ranges = partition_units(&[5, 5], 4);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges.last().unwrap().end, 2);
        let nonempty: usize = ranges.iter().filter(|r| !r.is_empty()).count();
        assert!(nonempty >= 1);
    }

    #[test]
    fn zero_weight_units_do_not_break_partitioning() {
        let ranges = partition_units(&[0, 0, 0, 0], 2);
        assert_eq!(ranges.last().unwrap().end, 4);
    }

    #[test]
    fn units_to_rows_clamps_tail() {
        let unit_ranges = vec![0..2, 2..4];
        // 4 units of height 3 over 10 rows: last row range clamps to 10.
        let rows = units_to_rows(&unit_ranges, 3, 10);
        assert_eq!(rows, vec![0..6, 6..10]);
    }

    #[test]
    fn padded_weights_exceed_raw_nnz() {
        // One isolated entry per block row: weight must count the full
        // padded block, not the single nonzero.
        let csr = Csr::from_coo(
            &Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (2, 3, 1.0), (4, 7, 1.0)]).unwrap(),
        );
        let w = bcsr_unit_weights(&csr, BlockShape::new(2, 4).unwrap());
        assert_eq!(w, vec![8, 8, 8, 0]);
        let wd = bcsd_unit_weights(&csr, 2);
        assert_eq!(wd, vec![2, 2, 2, 0]);
    }

    #[test]
    fn heavy_unit_triggers_only_past_the_ideal_share() {
        // Exactly the ideal share is fine; one more nonzero trips it.
        assert_eq!(heavy_unit(&[25, 25, 25, 25], 4), None);
        assert_eq!(heavy_unit(&[26, 25, 25, 24], 4), Some(0));
        assert_eq!(heavy_unit(&[], 4), None);
        assert_eq!(heavy_unit(&[100], 1), None);
        // All weight in one unit: always heavy for parts > 1.
        assert_eq!(heavy_unit(&[0, 7, 0], 3), Some(1));
    }

    #[test]
    fn split_segments_cover_contiguously_with_near_equal_sizes() {
        for nnz in [0usize, 1, 2, 7, 10, 33] {
            for parts in 1..=5 {
                let segs = split_segments(nnz, parts);
                assert_eq!(segs.len(), parts);
                assert_eq!(segs[0].start, 0);
                assert_eq!(segs.last().unwrap().end, nnz);
                for pair in segs.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start);
                }
                let (min, max) = segs.iter().fold((usize::MAX, 0), |(lo, hi), r| {
                    (lo.min(r.len()), hi.max(r.len()))
                });
                assert!(max - min <= 1, "nnz={nnz} parts={parts}: {segs:?}");
            }
        }
    }

    #[test]
    fn sell_weights_count_padded_slices() {
        // Unit 0 (rows 0-1) pads both rows to width 3; unit 1 (row 2,
        // tail) still weighs a full 2-lane slice.
        let csr = Csr::from_coo(
            &Coo::from_triplets(
                3,
                4,
                vec![
                    (0, 0, 1.0),
                    (0, 1, 1.0),
                    (0, 2, 1.0),
                    (1, 3, 1.0),
                    (2, 0, 1.0),
                ],
            )
            .unwrap(),
        );
        assert_eq!(sell_unit_weights(&csr, 2), vec![6, 2]);
        let nnz: u64 = csr_unit_weights(&csr).iter().sum();
        assert!(sell_unit_weights(&csr, 2).iter().sum::<u64>() >= nnz);
    }

    #[test]
    fn csr_weights_are_row_nnz() {
        let csr = Csr::from_coo(
            &Coo::from_triplets(3, 3, vec![(0, 0, 1.0), (0, 1, 1.0), (2, 2, 1.0)]).unwrap(),
        );
        assert_eq!(csr_unit_weights(&csr), vec![2, 0, 1]);
    }
}
