//! Latency-aware prediction — the paper's first future-work direction.
//!
//! All three §IV models "ignore memory latencies, which means that they
//! actually ignore the cache misses due to the irregular accesses on the
//! input vector"; §V-B then identifies four matrices where exactly those
//! misses dominate and every model under-predicts. The paper's §VI
//! proposes extending the models "to also account for memory latencies"
//! — this module is that extension:
//!
//! * [`measure_latency`] — a pointer-chase microbenchmark measuring the
//!   average dependent-load latency at a given footprint (the analogue
//!   of the STREAM triad for the latency axis);
//! * [`input_vector_miss_estimate`] — a static count of input-vector
//!   accesses whose column distance from the previous access in the row
//!   exceeds the prefetcher window, scaled by the probability that `x`
//!   does not fit in cache;
//! * [`predict_overlap_lat`] — `t = t_OVERLAP + misses * latency`,
//!   equation (3) plus the latency term the paper left to future work.

use crate::config::Config;
use crate::machine::MachineProfile;
use crate::models::Model;
use crate::profile::KernelProfile;
use crate::timing;
use spmv_core::{Csr, MatrixShape, Scalar};

/// Measured memory-latency characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Average seconds per dependent load at the probed footprint.
    pub load_latency: f64,
    /// The footprint the chase covered, bytes.
    pub footprint: usize,
}

/// Pointer-chase latency measurement: a random cyclic permutation is
/// walked link by link, so every load depends on the previous one and
/// neither the out-of-order core nor the prefetcher can overlap them.
pub fn measure_latency(footprint_bytes: usize, min_time: f64) -> LatencyProfile {
    let n = (footprint_bytes / core::mem::size_of::<usize>()).max(16);
    // Sattolo's algorithm: a single cycle covering all n slots, with a
    // deterministic xorshift so runs are reproducible.
    let mut next: Vec<usize> = (0..n).collect();
    let mut state = 0x2545F491_4F6CDD1Du64;
    let mut rand = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    for i in (1..n).rev() {
        let j = rand(i);
        next.swap(i, j);
    }
    let mut pos = 0usize;
    let hops_per_call = n.max(1024);
    let secs = timing::measure(
        || {
            let mut p = pos;
            for _ in 0..hops_per_call {
                p = next[p];
            }
            pos = std::hint::black_box(p);
        },
        min_time,
        3,
    );
    LatencyProfile {
        load_latency: secs / hops_per_call as f64,
        footprint: footprint_bytes,
    }
}

/// Estimates the number of input-vector cache misses of one SpMV.
///
/// An access is a miss candidate when its column is more than `window`
/// entries after the previous nonzero of the row (a stride prefetcher
/// covers anything closer). Candidates only miss if `x` exceeds the
/// cache, so the count is scaled by the excess fraction
/// `max(0, 1 - llc/x_bytes)` — for an in-cache input vector the estimate
/// is zero and the extension degenerates to plain OVERLAP.
pub fn input_vector_miss_estimate<T: Scalar>(
    csr: &Csr<T>,
    machine: &MachineProfile,
    window: usize,
) -> f64 {
    let x_bytes = csr.n_cols() * T::BYTES;
    if x_bytes == 0 {
        return 0.0;
    }
    let out_of_cache = (1.0 - machine.llc_bytes as f64 / x_bytes as f64).max(0.0);
    if out_of_cache == 0.0 {
        return 0.0;
    }
    let mut candidates = 0usize;
    for i in 0..csr.n_rows() {
        let (cols, _) = csr.row(i);
        let mut prev: Option<u32> = None;
        for &c in cols {
            match prev {
                Some(p) if (c.saturating_sub(p) as usize) <= window => {}
                _ => candidates += 1,
            }
            prev = Some(c);
        }
    }
    candidates as f64 * out_of_cache
}

/// OVERLAP plus the latency term: `t = t_OVERLAP + misses * load_latency`.
pub fn predict_overlap_lat<T: Scalar>(
    csr: &Csr<T>,
    config: &Config,
    machine: &MachineProfile,
    profile: &KernelProfile,
    latency: &LatencyProfile,
) -> f64 {
    let stats = config.substats(csr);
    let base = Model::Overlap.predict(&stats, machine, profile);
    // Decomposed configurations traverse x once per submatrix; the miss
    // estimate is per traversal, and `substats` has one entry each.
    let traversals = stats.len() as f64;
    let misses = input_vector_miss_estimate(csr, machine, 8);
    base + traversals * misses * latency.load_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_gen::GenSpec;

    fn machine_small_cache() -> MachineProfile {
        MachineProfile {
            bandwidth: 4e9,
            l1_bytes: 32 * 1024,
            llc_bytes: 64 * 1024, // tiny LLC so x spills in tests
        }
    }

    #[test]
    fn chase_latency_is_positive_and_reproducible_order() {
        let a = measure_latency(1 << 14, 1e-3);
        assert!(a.load_latency > 0.0);
        assert!(a.load_latency < 1e-5, "absurd latency {}", a.load_latency);
    }

    #[test]
    fn in_cache_vectors_add_nothing() {
        let csr = GenSpec::Random {
            n: 100,
            m: 100,
            nnz_per_row: 4,
        }
        .build(1);
        let machine = MachineProfile::paper_testbed(); // 4 MiB LLC >> x
        assert_eq!(input_vector_miss_estimate(&csr, &machine, 8), 0.0);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let lat = LatencyProfile {
            load_latency: 1e-7,
            footprint: 1 << 20,
        };
        let cfg = Config::CSR;
        let base = Model::Overlap.predict(&cfg.substats(&csr), &machine, &profile);
        let ext = predict_overlap_lat(&csr, &cfg, &machine, &profile, &lat);
        assert_eq!(base, ext);
    }

    #[test]
    fn irregular_matrices_get_a_latency_penalty() {
        let scatter = GenSpec::Random {
            n: 2_000,
            m: 20_000,
            nnz_per_row: 4,
        }
        .build(2);
        let machine = machine_small_cache();
        let misses = input_vector_miss_estimate(&scatter, &machine, 8);
        assert!(
            misses > 0.5 * scatter.nnz() as f64 * 0.5,
            "misses = {misses}"
        );
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let lat = LatencyProfile {
            load_latency: 1e-7,
            footprint: 1 << 20,
        };
        let cfg = Config::CSR;
        let base = Model::Overlap.predict(&cfg.substats(&scatter), &machine, &profile);
        let ext = predict_overlap_lat(&scatter, &cfg, &machine, &profile, &lat);
        assert!(ext > base, "latency term must be positive here");
    }

    #[test]
    fn dense_runs_stay_cheap() {
        // Long runs: only the first access of each run is a candidate.
        let runs = GenSpec::ClusteredRandom {
            n: 500,
            m: 50_000,
            runs_per_row: 2,
            run_len: 40,
        }
        .build(3);
        let machine = machine_small_cache();
        let misses = input_vector_miss_estimate(&runs, &machine, 8);
        // ~2 candidates per row out of ~80 accesses.
        assert!(
            misses < 0.1 * runs.nnz() as f64,
            "runs should amortize misses, got {misses}"
        );
    }

    #[test]
    fn ranking_flips_toward_regular_formats() {
        // Two matrices with identical nnz but different regularity: the
        // latency-aware predictor must separate them while plain OVERLAP
        // (by construction, same ws and nb) cannot.
        let machine = machine_small_cache();
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let lat = LatencyProfile {
            load_latency: 2e-7,
            footprint: 1 << 20,
        };
        let regular = GenSpec::ClusteredRandom {
            n: 500,
            m: 20_000,
            runs_per_row: 1,
            run_len: 16,
        }
        .build(4);
        let irregular = GenSpec::Random {
            n: 500,
            m: 20_000,
            nnz_per_row: 16,
        }
        .build(4);
        let cfg = Config::CSR;
        let t_reg = predict_overlap_lat(&regular, &cfg, &machine, &profile, &lat);
        let t_irr = predict_overlap_lat(&irregular, &cfg, &machine, &profile, &lat);
        assert!(
            t_irr > t_reg,
            "irregular {t_irr} should be predicted slower than regular {t_reg}"
        );
    }
}
