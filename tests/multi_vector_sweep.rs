//! k-sweep bitwise suite: every servable configuration, every chunking.
//!
//! A `k`-vector call runs in chunks of 8, 4, 2 and 1 vectors; the wider
//! chunks read `x` as k-tuples and every (row, vector) sum must take the
//! same roundings in the same order as the single-vector kernel. So for
//! each `Config::enumerate_extended(true)` configuration, built through
//! `Config::build` (serial) and `PreparedMatrix::from_config_pooled` (two
//! workers), in f64 and f32, column `t` of `spmv_multi(X, k)` must equal
//! `spmv(X[t])` bit for bit. The widths k ∈ {2, 3, 5, 8, 11} cover every
//! chunk width and the mixed chunkings 2+1, 4+1 and 8+2+1.
//!
//! Inputs: the shared structured corpus at a stride, plus edge matrices
//! for the clipped paths — BCSR blocks past the last column, BCSD blocks
//! clipped at both edges, a short last block row and segment, empty rows,
//! one dense row, and a matrix with no rows.

use blocked_spmv::core::rng::Rng;
use blocked_spmv::core::{Coo, Csr, MatrixShape, Scalar, SpMvMulti};
use blocked_spmv::kernels::simd::SimdScalar;
use blocked_spmv::model::Config;
use blocked_spmv::parallel::PinPolicy;
use blocked_spmv::serve::PreparedMatrix;
#[path = "support/corpus.rs"]
mod corpus;
use corpus::{structured_case, SEEDS};

const KS: [usize; 5] = [2, 3, 5, 8, 11];

/// Every 8th corpus seed: all four structure classes, and the dense-row
/// and empty-tail pathologies among them.
const STRIDE: u64 = 8;

fn random_block<T: Scalar>(len: usize, seed: u64) -> Vec<T> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| T::from_f64(rng.unit() * 4.0 - 2.0))
        .collect()
}

fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
    v.iter().map(|e| e.to_f64().to_bits()).collect()
}

/// Asserts every column of a `k`-vector call against its single call.
fn check<T: Scalar, M: SpMvMulti<T>>(mat: &M, xk: &[T], k: usize, ctx: &dyn Fn() -> String) {
    let (m, n) = (mat.n_cols(), mat.n_rows());
    let yk = mat.spmv_multi(xk, k);
    for t in 0..k {
        let y1 = mat.spmv(&xk[t * m..(t + 1) * m]);
        assert_eq!(
            bits(&yk[t * n..(t + 1) * n]),
            bits(&y1),
            "{} k={k} column {t}",
            ctx()
        );
    }
}

fn sweep<T: SimdScalar>(csr: &Csr<T>, label: &str, pooled: bool) {
    let xs: Vec<Vec<T>> = KS
        .iter()
        .map(|&k| random_block(csr.n_cols() * k, k as u64 ^ 0x5EED))
        .collect();
    for config in Config::enumerate_extended(true) {
        let built = config.build(csr);
        let pool =
            pooled.then(|| PreparedMatrix::from_config_pooled(config, csr, 2, PinPolicy::None));
        for (&k, xk) in KS.iter().zip(&xs) {
            check(&built, xk, k, &|| format!("{label} {config} serial"));
            if let Some(pool) = &pool {
                check(pool, xk, k, &|| format!("{label} {config} pooled"));
            }
        }
    }
}

fn edge_matrices<T: Scalar>() -> Vec<(&'static str, Csr<T>)> {
    let mut rng = Rng::new(0xED6E);
    let mut val = || T::from_f64(rng.unit() * 4.0 - 2.0);
    let build = |n: usize, m: usize, trips: Vec<(usize, usize, T)>| {
        Csr::from_coo(&Coo::from_triplets(n, m, trips).unwrap())
    };
    let mut out = Vec::new();

    // 29 x 31 band of half-width 9: 29 rows leave a short last block row
    // and segment for every height above 1, 31 columns clip every BCSR
    // block width above 1 at the right edge, and the band reaches column
    // 0 from below the diagonal (BCSD blocks clipped on the left) and the
    // last column above it (clipped on the right).
    let mut trips = Vec::new();
    for i in 0..29usize {
        for j in i.saturating_sub(9)..(i + 10).min(31) {
            trips.push((i, j, val()));
        }
    }
    out.push(("band 29x31", build(29, 31, trips)));

    // Scattered entries with empty rows (every third, and the last four)
    // and one dense row.
    let mut trips = Vec::new();
    for i in 0..26usize {
        if i % 3 == 1 || i >= 22 {
            continue;
        }
        if i == 10 {
            trips.extend((0..37).map(|j| (i, j, val())));
        } else {
            for s in 0..4 {
                trips.push((i, (i * 7 + s * 11) % 37, val()));
            }
        }
    }
    out.push(("empty rows and a dense row 26x37", build(26, 37, trips)));

    // Wide and short: one block row, clipped on the right.
    let trips = (0..3usize)
        .flat_map(|i| (0..5).map(move |s| (i, 2 + s * 4 + i, T::ONE)))
        .map(|(i, j, v)| (i, j, v + T::from_f64(j as f64 / 8.0)))
        .collect();
    out.push(("short wide 3x23", build(3, 23, trips)));

    out.push(("no rows 0x7", build(0, 7, Vec::new())));
    out
}

fn run<T: SimdScalar>() {
    for (label, csr) in edge_matrices::<T>() {
        sweep(&csr, label, true);
    }
    for seed in (0..SEEDS).step_by(STRIDE as usize) {
        let csr = structured_case(seed).csr::<T>();
        // Every fourth sampled seed also runs pooled.
        sweep(&csr, &format!("seed {seed}"), seed % (4 * STRIDE) == 0);
    }
}

#[test]
fn every_servable_config_multi_equals_singles_bitwise_f64() {
    run::<f64>();
}

#[test]
fn every_servable_config_multi_equals_singles_bitwise_f32() {
    run::<f32>();
}
