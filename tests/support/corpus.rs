//! Shared seeded matrix corpus for the differential suites.
//!
//! `differential_equivalence.rs`, `sellc_equivalence.rs` and
//! `substats_oracle.rs` used to each roll their own seeded corpus loop;
//! this module is the one place those corpora live, so a new format gets
//! 200-seed coverage by listing its constructor in a suite, not by
//! copying a generator.
//!
//! Three profiles:
//!
//! * [`structured_case`] — small matrices (≤ ~40 rows) spanning four
//!   structure classes (uniform fill, banded, 2-D block clusters,
//!   wrapped diagonals) keyed on the seed, with pathology injection on
//!   top: a fully dense row every 5th seed (dominates its SELL slice /
//!   fills its block row) and trailing empty rows every 7th seed (tail
//!   slices, empty block rows). Duplicate coordinates sum on build.
//! * [`blocky_matrix`] — mid-size matrices whose density (and block
//!   fill ratio) varies with the seed, for partial-block sweeps.
//! * [`pool_matrix`] — 300×300, ~4 nnz/row: large enough that every
//!   worker-pool strip is non-trivial; `substats_oracle.rs` samples it.
//!
//! Include with `#[path = "support/corpus.rs"] mod corpus;` — this file
//! is not a test target itself.
#![allow(dead_code)] // each suite uses a different slice of the corpus

use blocked_spmv::core::rng::Rng;
use blocked_spmv::core::{Coo, Csr, Scalar};

/// XOR-ed into every corpus seed: the whitening the recorded corpus was
/// drawn with, so seed `s` still names the same matrix.
const WHITEN: u64 = 0xE703_7ED1_A0B4_28DB;

/// Seeds per corpus sweep. Every suite iterating a corpus uses this
/// count, so "200-seed differential" means the same thing everywhere.
pub const SEEDS: u64 = 200;

/// One structured corpus entry: a triplet list plus its shape.
/// Duplicate coordinates are intentional (they sum on build); keep the
/// raw triplets around for references that accumulate straight off the
/// list.
pub struct Case {
    /// Rows.
    pub n: usize,
    /// Columns.
    pub m: usize,
    /// `(row, col, value)` triplets; duplicates sum.
    pub trips: Vec<(usize, usize, f64)>,
}

impl Case {
    /// Builds the CSR form at precision `T` (duplicates summed).
    pub fn csr<T: Scalar>(&self) -> Csr<T> {
        let trips: Vec<(usize, usize, T)> = self
            .trips
            .iter()
            .map(|&(i, j, v)| (i, j, T::from_f64(v)))
            .collect();
        Csr::from_coo(&Coo::from_triplets(self.n, self.m, trips).unwrap())
    }
}

/// One seeded small matrix; the low bits of the seed pick the structure
/// class so the seeds sweep density, bandedness, and block structure,
/// and fixed seed residues inject pathologies on top of every class.
pub fn structured_case(seed: u64) -> Case {
    let mut rng = Rng::new(seed ^ WHITEN);
    let n = rng.usize_in(1, 40);
    let m = rng.usize_in(1, 40);
    let mut trips = Vec::new();
    fn val(rng: &mut Rng) -> f64 {
        rng.unit() * 4.0 - 2.0
    }
    match seed % 4 {
        0 => {
            // Uniform random fill, density 2%..32%.
            let p = 0.02 + 0.3 * rng.unit();
            for i in 0..n {
                for j in 0..m {
                    if rng.chance(p) {
                        trips.push((i, j, val(&mut rng)));
                    }
                }
            }
        }
        1 => {
            // Banded, bandwidth 1..6, 70% fill inside the band.
            let bw = rng.usize_in(1, 7);
            for i in 0..n {
                for j in i.saturating_sub(bw)..(i + bw + 1).min(m) {
                    if rng.chance(0.7) {
                        trips.push((i, j, val(&mut rng)));
                    }
                }
            }
        }
        2 => {
            // Dense 2-D clusters at random anchors (BCSR-friendly), with
            // overlaps — duplicate coordinates sum by construction.
            let (br, bc) = if seed % 8 < 4 { (2, 2) } else { (3, 2) };
            let max_blocks = (n * m / (br * bc)).max(1) + 1;
            for _ in 0..rng.usize_in(1, max_blocks) {
                let i0 = rng.index(n);
                let j0 = rng.index(m);
                for di in 0..br {
                    for dj in 0..bc {
                        if i0 + di < n && j0 + dj < m {
                            trips.push((i0 + di, j0 + dj, val(&mut rng)));
                        }
                    }
                }
            }
        }
        _ => {
            // Wrapped diagonal runs (BCSD-friendly).
            for _ in 0..rng.usize_in(1, 5) {
                let off = rng.index(m);
                for i in 0..n {
                    if rng.chance(0.8) {
                        trips.push((i, (i + off) % m, val(&mut rng)));
                    }
                }
            }
        }
    }
    // Pathology injection on top of every class: one fully dense row
    // (dominates its SELL σ-window, fills its block row) and trailing
    // empty rows (tail slices, empty block rows) on fixed seed residues,
    // so every format's edge paths see corpus pressure without bespoke
    // loops in each suite.
    if seed.is_multiple_of(5) {
        let i = rng.index(n);
        for j in 0..m {
            trips.push((i, j, val(&mut rng)));
        }
    }
    let n = if seed.is_multiple_of(7) {
        n + rng.usize_in(1, 4)
    } else {
        n
    };
    Case { n, m, trips }
}

/// A seeded mid-size random matrix whose density (and therefore block
/// fill ratio) varies with the seed, so a corpus sweep covers sparse
/// and dense block populations instead of one regime 200 times.
pub fn blocky_matrix(seed: u64) -> Csr<f64> {
    let mut rng = Rng::new(seed ^ WHITEN);
    let n = 40 + (seed as usize % 5) * 13;
    let m = 40 + (seed as usize % 7) * 9;
    let max_row = 1 + (seed as usize % 10);
    let mut coo = Coo::new(n, m);
    for i in 0..n {
        for _ in 0..rng.index(max_row + 1) {
            let j = rng.index(m);
            let v = rng.unit() * 4.0 - 2.0;
            let _ = coo.push(i, j, v);
        }
    }
    Csr::from_coo(&coo)
}

/// A seeded 300×300 random matrix, ~4 nnz/row: large enough that every
/// worker-pool strip is non-trivial, with ragged rows so strip
/// boundaries land mid-structure.
pub fn pool_matrix(seed: u64) -> Csr<f64> {
    let mut rng = Rng::new(seed ^ WHITEN);
    let (n, m) = (300, 300);
    let mut coo = Coo::new(n, m);
    for i in 0..n {
        for _ in 0..rng.usize_in(1, 9) {
            let j = rng.index(m);
            let v = rng.unit() * 4.0 - 2.0;
            let _ = coo.push(i, j, v);
        }
    }
    Csr::from_coo(&coo)
}
