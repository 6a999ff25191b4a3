//! Corpus-wide oracle for the models' structure statistics.
//!
//! For every matrix of the shared corpus (`support/corpus.rs`) in f64 and
//! f32, and every configuration of the extended space, the statistics one
//! shared `ArenaStats` hands out must equal what the materialized format
//! reports: the working set, the block counts, and the multi-vector
//! working set. The memo is shared across all configurations of a matrix
//! on purpose: the ranking shares it the same way, so a geometry pass
//! reused by the wrong configuration shows up here.
//!
//! The structured and blocky profiles run all their seeds. The pool
//! profile runs every tenth: its seeds are draws from one 300×300 random
//! distribution rather than different structure classes, and building
//! the whole arena for one of them takes about 70 ms in a debug build.
//!
//! Ranking must not depend on the order configurations are asked in
//! either: a reversed candidate list fills the memo in a different order
//! and must yield the same `(config, prediction bits)` set.

#[path = "support/corpus.rs"]
mod corpus;

use blocked_spmv::core::{Csr, SpMv, SpMvMulti};
use blocked_spmv::kernels::simd::SimdScalar;
use blocked_spmv::model::{
    candidate_configs_extended, rank, ArenaStats, BuiltFormat, Config, KernelProfile,
    MachineProfile, Model, SubStat,
};

/// Stride over the pool profile's seeds (see the module docs).
const POOL_STRIDE: u64 = 10;

/// The corpus matrices with labels naming their profile and seed.
fn corpus_matrices() -> Vec<(String, Csr<f64>)> {
    let mut out = Vec::new();
    for seed in 0..corpus::SEEDS {
        out.push((
            format!("structured {seed}"),
            corpus::structured_case(seed).csr(),
        ));
        out.push((format!("blocky {seed}"), corpus::blocky_matrix(seed)));
        if seed % POOL_STRIDE == 0 {
            out.push((format!("pool {seed}"), corpus::pool_matrix(seed)));
        }
    }
    out
}

/// Checks, for every corpus matrix at precision `T` and every
/// configuration of the extended space, the statistics of one shared
/// [`ArenaStats`] against the materialized format: the working set, the
/// working set of `k`-vector calls (matrix traffic once plus vector
/// traffic `k` times), and the block counts of each submatrix. Each
/// format is built once for all three checks.
fn substats_match<T: SimdScalar>() {
    let configs = Config::enumerate_extended(true);
    for (label, csr) in corpus_matrices() {
        let csr = csr.cast::<T>();
        let mut arena = ArenaStats::new(&csr);
        for &config in &configs {
            let stats = arena.substats(config);
            let built = config.build(&csr);
            let what = format!("{label} {}: {config}", T::PRECISION.label());
            let ws: usize = stats.iter().map(|s| s.ws_bytes).sum();
            assert_eq!(ws, built.working_set_bytes(), "{what}: ws");
            for k in [1usize, 2, 4, 9] {
                let est: usize = stats
                    .iter()
                    .map(|s| s.ws_bytes - s.vec_bytes + k * s.vec_bytes)
                    .sum();
                assert_eq!(est, built.working_set_bytes_multi(k), "{what}: ws k={k}");
            }
            assert_eq!(block_counts(&built), nbs(&stats), "{what}: block counts");
        }
    }
}

/// Blocks per submatrix of a materialized format (nonzeros for CSR
/// parts), main submatrix first.
fn block_counts<T: SimdScalar>(built: &BuiltFormat<T>) -> Vec<usize> {
    match built {
        BuiltFormat::Csr(m) => vec![m.nnz()],
        BuiltFormat::Bcsr(m) => vec![m.n_blocks()],
        BuiltFormat::Bcsd(m) => vec![m.n_blocks()],
        BuiltFormat::BcsrDec(m) => vec![m.main().n_blocks(), m.rest().nnz()],
        BuiltFormat::BcsdDec(m) => vec![m.main().n_blocks(), m.rest().nnz()],
        BuiltFormat::SellCSigma(m) => vec![m.n_blocks()],
    }
}

fn nbs(stats: &[SubStat]) -> Vec<usize> {
    stats.iter().map(|s| s.nb).collect()
}

#[test]
fn substats_match_materialized_formats_f64() {
    substats_match::<f64>();
}

#[test]
fn substats_match_materialized_formats_f32() {
    substats_match::<f32>();
}

/// `(config, prediction bits)` of a ranking, in a canonical order.
fn ranked_set(ranked: &[blocked_spmv::model::Candidate]) -> Vec<(Config, u64)> {
    let mut set: Vec<_> = ranked
        .iter()
        .map(|c| (c.config, c.predicted.to_bits()))
        .collect();
    set.sort();
    set
}

fn order_independent<T: SimdScalar>() {
    let machine = MachineProfile {
        bandwidth: 5e9,
        l1_bytes: 32 * 1024,
        llc_bytes: 4 << 20,
    };
    let profile = KernelProfile::proportional(1e-9, 0.5);
    for (label, csr) in corpus_matrices() {
        let csr = csr.cast::<T>();
        for model in Model::ALL {
            let configs = candidate_configs_extended(model, true);
            let reversed: Vec<Config> = configs.iter().rev().copied().collect();
            assert_eq!(
                ranked_set(&rank(model, &csr, &machine, &profile, &configs)),
                ranked_set(&rank(model, &csr, &machine, &profile, &reversed)),
                "{label} {} {model}",
                T::PRECISION.label()
            );
        }
    }
}

#[test]
fn ranking_is_order_independent() {
    order_independent::<f64>();
    order_independent::<f32>();
}
