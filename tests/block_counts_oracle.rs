//! Brute-force oracle for the block counts of `spmv_formats::stats`.
//!
//! Every BCSR shape with `r * c <= 8` (1x1 included) and every BCSD size
//! up to 8 is counted the slow way, as a `BTreeMap` from (block row,
//! block column) or (segment, diagonal) to the block's entry count, and
//! compared with what the lane passes report: non-empty blocks, full
//! blocks (exactly `r * c`, or `b`, entries) and index rows.
//!
//! The inputs are the shared corpus plus the cases a lane pass can get
//! wrong: unchecked rows that are unsorted or repeat a column, a block of
//! at least 256 entries (its `u8` count saturates), rows of at least 256
//! nonzeros (the vector tallies drain within the row), empty rows, 1×n,
//! n×1 and non-square matrices, and row counts that no block height
//! divides.

#[path = "support/corpus.rs"]
mod corpus;

use blocked_spmv::core::rng::Rng;
use blocked_spmv::core::{Csr, MatrixShape};
use blocked_spmv::formats::{bcsd_lane_counts, bcsr_lane_counts, BlockCounts};
use std::collections::BTreeMap;

/// Largest block, in elements.
const MAX_ELEMS: usize = 8;

/// The counts of the blocks `block(i, j)` names, `height` rows tall and
/// full at `elems` entries, found by counting every block's entries.
fn oracle(
    csr: &Csr<f64>,
    height: usize,
    elems: usize,
    block: impl Fn(usize, usize) -> (usize, i64),
) -> BlockCounts {
    let mut blocks = BTreeMap::new();
    for (i, j, _) in csr.iter() {
        *blocks.entry(block(i, j)).or_insert(0usize) += 1;
    }
    BlockCounts {
        nb: blocks.len(),
        nb_full: blocks.values().filter(|&&n| n == elems).count(),
        index_rows: csr.n_rows().div_ceil(height),
    }
}

/// Every BCSR shape and BCSD size of `csr` against the oracle.
fn check(label: &str, csr: &Csr<f64>) {
    for c in 1..=MAX_ELEMS {
        let lanes = bcsr_lane_counts(csr, c);
        for r in 1..=MAX_ELEMS / c {
            let want = oracle(csr, r, r * c, |i, j| (i / r, (j / c) as i64));
            assert_eq!(lanes.height(r), want, "{label}: BCSR {r}x{c}");
        }
    }
    let lanes = bcsd_lane_counts(csr);
    for b in 1..=MAX_ELEMS {
        let want = oracle(csr, b, b, |i, j| (i / b, j as i64 - i as i64));
        assert_eq!(lanes.height(b), want, "{label}: BCSD b={b}");
    }
}

/// An unchecked CSR from explicit rows of column indices, in the order
/// given.
fn from_rows(n_cols: usize, rows: &[Vec<u32>]) -> Csr<f64> {
    let mut row_ptr = vec![0u32];
    let mut col_ind = Vec::new();
    for row in rows {
        col_ind.extend_from_slice(row);
        row_ptr.push(col_ind.len() as u32);
    }
    let nnz = col_ind.len();
    Csr::from_raw_unchecked(rows.len(), n_cols, row_ptr, col_ind, vec![1.0; nnz]).unwrap()
}

#[test]
fn lane_counts_match_the_oracle_on_the_corpus() {
    for seed in 0..corpus::SEEDS {
        check(
            &format!("structured {seed}"),
            &corpus::structured_case(seed).csr(),
        );
        check(&format!("blocky {seed}"), &corpus::blocky_matrix(seed));
        if seed % 10 == 0 {
            check(&format!("pool {seed}"), &corpus::pool_matrix(seed));
        }
    }
}

#[test]
fn lane_counts_match_the_oracle_on_unsorted_and_repeated_columns() {
    let mut rng = Rng::new(0xB10C_C0DE);
    for case in 0..200 {
        let (n, m) = (rng.usize_in(1, 50), rng.usize_in(1, 50));
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let mut row: Vec<u32> = Vec::new();
                for _ in 0..rng.index(14) {
                    // About one entry in three repeats its predecessor's
                    // column; the others land anywhere, out of order.
                    let j = match row.last() {
                        Some(&last) if rng.chance(0.33) => last,
                        _ => rng.index(m) as u32,
                    };
                    row.push(j);
                }
                row
            })
            .collect();
        check(&format!("unchecked {case}"), &from_rows(m, &rows));
    }
}

#[test]
fn a_block_of_more_than_255_entries_is_never_full() {
    // Row 0 repeats column 0 258 times: 258 wraps to 2 in a `u8`, the
    // size of a full 1x2 or 2x1 block and of a full b = 2 diagonal, so a
    // wrapping count would call that block full. Row 3 repeats column 5
    // exactly eight times: the one entry count that makes its 1x8 block
    // full.
    let rows = vec![
        vec![0; 258],
        vec![1, 0, 2],
        vec![],
        vec![5; 8],
        (0..8).collect(),
    ];
    let csr = from_rows(8, &rows);
    check("saturated", &csr);
    // 1x2: row 0's one block of 258, row 1's {1, 0} (full) and {2},
    // row 3's {5 x 8} and row 4's four full blocks.
    let pairs = bcsr_lane_counts(&csr, 2).height(1);
    assert_eq!((pairs.nb, pairs.nb_full), (8, 5));
}

#[test]
fn rows_of_more_than_255_nonzeros_drain_their_tallies() {
    // Dense rows of 300 and 700 columns open hundreds of blocks within a
    // row on every lane, between sparse ones.
    for width in [300, 700] {
        let rows: Vec<Vec<u32>> = (0..19)
            .map(|i| match i % 6 {
                0 => (0..width as u32).collect(),
                3 => (0..width as u32).rev().step_by(3).collect(),
                _ => vec![i as u32, (i * 7 % width) as u32],
            })
            .collect();
        check(&format!("dense rows of {width}"), &from_rows(width, &rows));
    }
}

#[test]
fn lane_counts_match_the_oracle_on_degenerate_shapes() {
    let mut rng = Rng::new(0x5EED_0DD5);
    let mut random = |n: usize, m: usize, p: f64| -> Csr<f64> {
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..m as u32).filter(|_| rng.chance(p)).collect())
            .collect();
        from_rows(m, &rows)
    };
    // 1×n, n×1, wide and tall; 839 rows, divisible by no height up to 8;
    // and matrices whose rows are mostly empty, leading and trailing ones
    // included.
    let cases = [
        ("1x1", random(1, 1, 1.0)),
        ("1x97", random(1, 97, 0.6)),
        ("97x1", random(97, 1, 0.6)),
        ("5x240", random(5, 240, 0.3)),
        ("240x5", random(240, 5, 0.3)),
        ("839x839", random(839, 839, 0.01)),
        ("mostly empty", random(300, 40, 0.004)),
        ("empty", random(13, 17, 0.0)),
    ];
    for (label, csr) in &cases {
        check(label, csr);
    }
    check("no rows", &from_rows(6, &[]));
}
