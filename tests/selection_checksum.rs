//! Bit identity of model-driven selection: FNV-1a checksums over every
//! candidate that `rank` and `rank_multi` return, in ranked order.
//!
//! Selection is a pure function of the matrix structure, the machine
//! profile and the kernel profile. Each row below hashes, for one suite
//! matrix at one precision and for each of the three models over its
//! extended candidate list (`candidate_configs_extended`), every
//! `(config label, predicted bits)` pair of
//! `rank` and every `(config label, k, predicted bits)` triple of
//! `rank_multi` with `k ∈ {1, 2, 4, 8}`. A change to the structure
//! statistics, a `SubStat` byte formula, a model equation or the tie
//! order of the ranking shows up here as a changed checksum.
//!
//! The expected values were computed on a tree whose extended space
//! still held the since-deleted CSR-Δ and padding-free BCSR/BCSD
//! configurations, with those filtered out of the candidate list before
//! `rank`/`rank_multi`: every surviving candidate's prediction, and
//! their relative order, is the same bit for bit.
//!
//! Updating the expected values is only right for an intended change to
//! the models or to the candidate list; a speed-up of the statistics path
//! (`ArenaStats`, the counting scans of `spmv_formats::stats`) must leave
//! them unchanged.

#[path = "support/fnv.rs"]
mod fnv;

use blocked_spmv::core::{Csr, Scalar};
use blocked_spmv::gen::suite;
use blocked_spmv::model::{
    candidate_configs_extended, rank, rank_multi, BlockTimes, KernelProfile, MachineProfile, Model,
};
use fnv::{check, Fnv};

/// Suite scale: small enough that a debug `cargo test` stays fast.
const SCALE: f64 = 0.05;
const SEED: u64 = 7;
const KS: [usize; 4] = [1, 2, 4, 8];

fn machine() -> MachineProfile {
    MachineProfile {
        bandwidth: 5.5e9,
        l1_bytes: 32 * 1024,
        llc_bytes: 2 << 20,
    }
}

/// A synthetic profile whose per-block times differ from kernel to
/// kernel (a hash of the key's label), so ranking ties are rare and a
/// reordering shows.
fn profile() -> KernelProfile {
    let mut p = KernelProfile::uniform(0.0, 0.0);
    let keys: Vec<_> = p.iter().map(|(&key, _)| key).collect();
    for key in keys {
        let mut h = Fnv::new();
        h.str(&key.to_string());
        let u = (h.0 >> 11) as f64 / (1u64 << 53) as f64;
        p.set(
            key,
            BlockTimes {
                t_b: key.block_elems() as f64 * (0.5 + u) * 1e-9,
                nof: 0.2 + 0.6 * u,
            },
        );
    }
    p
}

fn selection_sum<T: Scalar>(csr: &Csr<T>) -> u64 {
    let (m, p) = (machine(), profile());
    let mut h = Fnv::new();
    for model in Model::ALL {
        let configs = candidate_configs_extended(model, true);
        for c in rank(model, csr, &m, &p, &configs) {
            h.str(&c.config.to_string());
            h.u64(c.predicted.to_bits());
        }
        for c in rank_multi(model, csr, &m, &p, &configs, &KS) {
            h.str(&c.config.to_string());
            h.u64(c.k as u64);
            h.u64(c.predicted.to_bits());
        }
    }
    h.0
}

/// `(suite id, f64 checksum, f32 checksum)` at [`SCALE`], seed [`SEED`].
const EXPECTED: [(usize, u64, u64); 8] = [
    (1, 0x8a3e_b40a_0a97_b89c, 0xddcf_8ddd_6873_4dd6),
    (3, 0xa790_efe1_1b0d_0da6, 0x4148_7939_754f_b2ea),
    (5, 0x8c1c_9349_b77e_ac45, 0x7a99_ddf1_8231_977d),
    (11, 0x40c5_c000_783e_74a9, 0xfb57_2ddb_d32d_1690),
    (14, 0xb64f_3856_0769_e132, 0xe83b_8211_73e5_5d15),
    (20, 0xb896_62a6_1081_ea4f, 0xa678_f529_75d7_a03c),
    (23, 0x0ba7_6806_0565_edd2, 0x9b2c_cad3_b396_db3b),
    (28, 0xada9_9a11_d625_5454, 0x85c5_56b3_c56e_d76e),
];

#[test]
fn selection_is_unchanged() {
    let matrices = suite(SCALE);
    let rows: Vec<_> = EXPECTED
        .iter()
        .flat_map(|&(id, want64, want32)| {
            let csr = matrices[id - 1].build(SEED);
            [
                (format!("suite #{id} f64"), selection_sum(&csr), want64),
                (
                    format!("suite #{id} f32"),
                    selection_sum(&csr.cast::<f32>()),
                    want32,
                ),
            ]
        })
        .collect();
    check(&rows);
}
