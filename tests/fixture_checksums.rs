//! Stream identity of the seeded inputs: FNV-1a checksums over the
//! synthetic suite, the input vectors and the shared test corpus.
//!
//! The synthetic suite stands in for the paper's 30 UF matrices, so the
//! generators' random stream *is* the evaluation suite: every recorded
//! `results/*.txt`, every benchmark input and every corpus-driven
//! differential suite was produced from it. A change to the workspace RNG,
//! a draw rule or a generator's draw order shows up here as a changed
//! checksum instead of as a silently different suite.
//!
//! The expected values were recorded from the build that produced
//! `results/`. Updating them is only right together with regenerating
//! every recorded result and the benchmark's pinned selections.

#[path = "support/corpus.rs"]
mod corpus;
#[path = "support/fnv.rs"]
mod fnv;

use blocked_spmv::core::{Csr, MatrixShape};
use blocked_spmv::gen::{random_vector, suite};
use fnv::{check, Fnv};

fn hash_csr(h: &mut Fnv, csr: &Csr<f64>) {
    h.u64(csr.n_rows() as u64);
    h.u64(csr.n_cols() as u64);
    for &p in csr.row_ptr() {
        h.u64(u64::from(p));
    }
    for &c in csr.col_ind() {
        h.u64(u64::from(c));
    }
    for v in csr.val() {
        h.u64(v.to_bits());
    }
}

fn csr_sum(csr: &Csr<f64>) -> u64 {
    let mut h = Fnv::new();
    hash_csr(&mut h, csr);
    h.0
}

/// One checksum over a whole corpus profile, seeds `0..SEEDS` in order.
fn corpus_sum(build: impl Fn(u64) -> Csr<f64>) -> u64 {
    let mut h = Fnv::new();
    for seed in 0..corpus::SEEDS {
        hash_csr(&mut h, &build(seed));
    }
    h.0
}

/// Suite #1..#30 at scale 0.02, seed 7, in id order.
const SUITE: [u64; 30] = [
    0xd5a4_cde9_1bc1_d519,
    0x55f8_76be_586c_6f04,
    0x5249_059a_a503_204a,
    0xf802_1617_fe8f_3211,
    0x07a4_dfcc_634f_ff16,
    0xf0ae_d3cf_7267_a0ef,
    0x2a5d_2304_efc1_51b0,
    0x8434_db8d_678f_5fc8,
    0xe744_1fc9_dfcb_ffe9,
    0x9be5_b2fb_7066_d357,
    0x0e33_f845_f18f_dbdf,
    0x91aa_43ec_825a_4548,
    0x8ac2_0f47_5f61_3af2,
    0xa4bc_1602_bf5b_8552,
    0x93b7_3f1e_94d4_a973,
    0x528d_bfb6_79b5_7e23,
    0x0d76_087e_2cc0_b4b8,
    0xbbff_7461_e2e2_d417,
    0x3636_b390_efbe_7379,
    0x433f_ad99_07b3_d2d3,
    0x7611_3d69_6787_5944,
    0x219e_911e_eac6_10d5,
    0x1656_e3d5_aa40_da1a,
    0x76bf_b55e_5a9d_25d5,
    0x6f65_052e_8ef7_a153,
    0xd76a_1419_576d_9429,
    0x54f7_f1dc_4d5e_a9cf,
    0x4391_eb0a_e0bc_9913,
    0xbe71_e208_6a2d_c654,
    0x6f29_1629_2512_4d8d,
];

#[test]
fn suite_matrices_are_unchanged() {
    let rows: Vec<_> = suite(0.02)
        .iter()
        .zip(SUITE)
        .map(|(entry, want)| {
            (
                format!("suite #{}", entry.id),
                csr_sum(&entry.build(7)),
                want,
            )
        })
        .collect();
    assert_eq!(rows.len(), 30);
    check(&rows);
}

#[test]
fn random_vectors_are_unchanged() {
    let cases: [(usize, u64, u64); 4] = [
        (1, 0, 0x7115_cf18_ed55_f861),
        (100, 3, 0xf68d_b2cf_a406_d89d),
        (1000, 7, 0x5fb0_b77e_88be_56ec),
        (4096, 23 << 32, 0xaee3_e31f_bae0_96f5),
    ];
    let rows: Vec<_> = cases
        .iter()
        .map(|&(n, seed, want)| {
            let mut h = Fnv::new();
            for v in random_vector::<f64>(n, seed) {
                h.u64(v.to_bits());
            }
            (format!("random_vector({n}, {seed})"), h.0, want)
        })
        .collect();
    check(&rows);
}

#[test]
fn corpus_is_unchanged() {
    check(&[
        (
            "structured_case".into(),
            corpus_sum(|s| corpus::structured_case(s).csr()),
            0x55b6_8858_f644_28bd,
        ),
        (
            "blocky_matrix".into(),
            corpus_sum(corpus::blocky_matrix),
            0xd93d_cca0_913c_fce0,
        ),
        (
            "pool_matrix".into(),
            corpus_sum(corpus::pool_matrix),
            0xb721_5d60_222d_f477,
        ),
    ]);
}
