//! Bit identity of model-driven selection: FNV-1a checksums over every
//! candidate that `rank` and `rank_multi` return, in ranked order.
//!
//! Selection is a pure function of the matrix structure, the machine
//! profile and the kernel profile. Each row below hashes, for one suite
//! matrix at one precision and for each of the three models over its
//! extended candidate set, every `(config label, predicted bits)` pair of
//! `rank` and every `(config label, k, predicted bits)` triple of
//! `rank_multi` with `k ∈ {1, 2, 4, 8}`. A change to the structure
//! statistics, a `SubStat` byte formula, a model equation or the tie
//! order of the ranking shows up here as a changed checksum.
//!
//! Updating the expected values is only right for an intended change to
//! the models; a speed-up of the statistics path (`ArenaStats`, the
//! counting scans of `spmv_formats::stats`) must leave them unchanged.

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
    (1, 0x04fd_cbb8_3d63_8075, 0x1923_7b7c_2b40_3fd6),
    (3, 0xfe3c_64dd_365b_5398, 0x0db8_8cf1_f8dc_bfa2),
    (5, 0x5cd0_cc95_bd92_8521, 0xfd40_f3d2_3aeb_8272),
    (11, 0x8d1a_2690_b247_1a77, 0x835c_7607_01a9_f61d),
    (14, 0x7c7a_a0ab_94cc_98ed, 0x3d93_e766_c250_5f11),
    (20, 0xb9c1_c78d_f8ba_6c0e, 0xb67f_dc16_bc47_c7bf),
    (23, 0x55f0_c769_bf21_9388, 0x91bb_895f_2c72_bf54),
    (28, 0x8eb5_936b_07cf_a67e, 0x8b45_9e12_3603_a993),
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
