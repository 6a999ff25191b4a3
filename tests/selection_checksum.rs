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
//! still held the since-deleted u16-index twins of BCSR, BCSD and
//! SELL-C-σ, with those filtered out of the candidate list before
//! `rank`/`rank_multi`: every surviving candidate's prediction, and
//! their relative order, is the same bit for bit. (The CSR-Δ and
//! padding-free BCSR/BCSD configurations left the same way earlier.)
//!
//! Updating the expected values is only right for an intended change to
//! the models or to the candidate list; a speed-up of the statistics path
//! (`ArenaStats`, the lane passes of `spmv_formats::stats`) must leave
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
    (1, 0x8f4b_5bf0_cde5_e8f3, 0xeb1e_4f79_b879_d9ff),
    (3, 0x15aa_177f_3275_d3f9, 0x0ae8_3dc2_0a93_94be),
    (5, 0x921a_3671_6df4_d33b, 0x95c8_a6bc_b7e0_36bb),
    (11, 0xc040_da6c_b5d6_24ed, 0x7158_8631_bd86_8e0a),
    (14, 0x940f_b3ca_e14e_bebe, 0x59b4_67be_38fd_6f00),
    (20, 0x7cda_629b_992c_551f, 0x540a_89b2_978f_c8d9),
    (23, 0xa0f8_6862_123a_4db4, 0xe981_ad53_ca9d_32b5),
    (28, 0x9e42_a38b_dc89_fa67, 0xf21f_8beb_a396_d50f),
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
