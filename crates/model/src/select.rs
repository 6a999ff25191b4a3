//! Model-driven configuration selection.
//!
//! This is the models' purpose in the paper: rank every candidate
//! (format, block, implementation) by predicted time and pick the
//! minimum — "what is important for a performance model to accurately
//! select the proper blocking method and block is to properly rank the
//! different combinations … even if the predicted execution time is not
//! very accurate" (§V-B).

use crate::config::{ArenaStats, Config, KernelKey};
use crate::machine::MachineProfile;
use crate::models::Model;
use crate::profile::{BlockTimes, KernelProfile};
use spmv_core::{Csr, Scalar};

/// One ranked candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The configuration.
    pub config: Config,
    /// Its predicted execution time, seconds per SpMV.
    pub predicted: f64,
}

/// The candidate list a model considers.
///
/// The MEM model "ignores the computational part of the kernel", so it
/// cannot distinguish kernel implementations; following §V-B it considers
/// only the non-SIMD variants ("we selected the non-simd version by
/// default"). MEMCOMP and OVERLAP rank the full space, including the
/// choice of SIMD vs scalar kernels.
pub fn candidate_configs(model: Model, include_simd: bool) -> Vec<Config> {
    match model {
        Model::Mem => Config::enumerate(false),
        Model::MemComp | Model::Overlap => Config::enumerate(include_simd),
    }
}

/// The candidate list over the *extended* search space
/// ([`Config::enumerate_extended`]): what [`candidate_configs`] ranks
/// plus every SELL-C-σ configuration.
/// The MEM restriction to scalar kernels carries over unchanged.
pub fn candidate_configs_extended(model: Model, include_simd: bool) -> Vec<Config> {
    match model {
        Model::Mem => Config::enumerate_extended(false),
        Model::MemComp | Model::Overlap => Config::enumerate_extended(include_simd),
    }
}

/// Ranks `configs` for `csr` by predicted time, ascending (ties keep the
/// order of `configs`).
///
/// The structure statistics come from one [`ArenaStats`] per call, so
/// configurations counted by one `O(nnz)` pass share it.
pub fn rank<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    machine: &MachineProfile,
    profile: &KernelProfile,
    configs: &[Config],
) -> Vec<Candidate> {
    let _rank_span = spmv_telemetry::span_with("model.rank", configs.len() as u64);
    let mut arena = ArenaStats::new(csr);
    let mut out: Vec<Candidate> = configs
        .iter()
        .map(|&config| Candidate {
            config,
            predicted: model.predict(&arena.substats(config), machine, profile),
        })
        .collect();
    out.sort_by(|a, b| a.predicted.total_cmp(&b.predicted));
    out
}

/// Returns the model's selection (minimum predicted time) over the
/// model-appropriate candidate set.
pub fn select<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    machine: &MachineProfile,
    profile: &KernelProfile,
    include_simd: bool,
) -> Candidate {
    let configs = candidate_configs(model, include_simd);
    rank(model, csr, machine, profile, &configs)
        .into_iter()
        .next()
        .expect("candidate set is never empty")
}

/// [`select`] over the extended candidate set
/// ([`candidate_configs_extended`]).
pub fn select_extended<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    machine: &MachineProfile,
    profile: &KernelProfile,
    include_simd: bool,
) -> Candidate {
    let configs = candidate_configs_extended(model, include_simd);
    rank(model, csr, machine, profile, &configs)
        .into_iter()
        .next()
        .expect("candidate set is never empty")
}

/// Measured inputs that replace their calibration-time counterparts
/// before a re-rank.
///
/// The offline pipeline ranks with a machine profile and kernel profile
/// measured once; an online tuner re-measures exactly the quantities it
/// suspects — the live STREAM bandwidth, the per-block times of the
/// kernels implicated by bad residuals — and re-ranks with everything
/// else unchanged. `MeasuredOverrides` carries those re-measurements.
/// Applying them produces ordinary [`MachineProfile`]/[`KernelProfile`]
/// values, so [`select_extended_measured`] is a *thin wrapper* over
/// [`select_extended`]: an adaptive layer on top of it adds
/// no selection logic of its own, which is what makes its choices
/// property-testable against the offline selector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MeasuredOverrides {
    /// Live STREAM bandwidth, bytes/s, replacing
    /// [`MachineProfile::bandwidth`]; `None` keeps the profiled value.
    pub bandwidth: Option<f64>,
    /// Re-profiled per-kernel block times, replacing the corresponding
    /// [`KernelProfile`] entries; keys not listed keep their profiled
    /// values.
    pub kernels: Vec<(KernelKey, BlockTimes)>,
}

impl MeasuredOverrides {
    /// Whether the overrides change anything at all.
    pub fn is_empty(&self) -> bool {
        self.bandwidth.is_none() && self.kernels.is_empty()
    }

    /// The machine and kernel profiles with these measurements applied.
    pub fn apply(
        &self,
        machine: &MachineProfile,
        profile: &KernelProfile,
    ) -> (MachineProfile, KernelProfile) {
        let mut m = *machine;
        if let Some(bw) = self.bandwidth {
            if bw.is_finite() && bw > 0.0 {
                m.bandwidth = bw;
            }
        }
        let mut p = profile.clone();
        for &(key, times) in &self.kernels {
            p.set(key, times);
        }
        (m, p)
    }
}

/// [`select_extended`] with measured overrides applied first.
pub fn select_extended_measured<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    machine: &MachineProfile,
    profile: &KernelProfile,
    include_simd: bool,
    overrides: &MeasuredOverrides,
) -> Candidate {
    let (m, p) = overrides.apply(machine, profile);
    select_extended(model, csr, &m, &p, include_simd)
}

/// One ranked multi-vector candidate: a configuration paired with a
/// vector count `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiCandidate {
    /// The configuration.
    pub config: Config,
    /// Number of simultaneous right-hand sides.
    pub k: usize,
    /// Predicted execution time of one `k`-vector call, seconds.
    pub predicted: f64,
    /// Predicted time amortized per vector: `predicted / k`. The ranking
    /// key — it is what decides whether batching pays off.
    pub per_vector: f64,
}

/// Ranks every (config, k) pair by predicted time *per vector*,
/// ascending, with one [`ArenaStats`] per call like [`rank`].
///
/// The matrix streams once per call regardless of `k`, so larger batches
/// amortize the dominant traffic term; ranking per vector makes batched
/// and single-vector candidates directly comparable.
///
/// # Panics
///
/// Panics if any entry of `ks` is zero.
pub fn rank_multi<T: Scalar>(
    model: Model,
    csr: &Csr<T>,
    machine: &MachineProfile,
    profile: &KernelProfile,
    configs: &[Config],
    ks: &[usize],
) -> Vec<MultiCandidate> {
    let _rank_span =
        spmv_telemetry::span_with("model.rank_multi", (configs.len() * ks.len()) as u64);
    let mut arena = ArenaStats::new(csr);
    let mut out = Vec::with_capacity(configs.len() * ks.len());
    for &config in configs {
        let stats = arena.substats(config);
        for &k in ks {
            let predicted = model.predict_multi(&stats, k, machine, profile);
            out.push(MultiCandidate {
                config,
                k,
                predicted,
                per_vector: predicted / k as f64,
            });
        }
    }
    out.sort_by(|a, b| a.per_vector.total_cmp(&b.per_vector));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockConfig;
    use crate::profile::BlockTimes;
    use spmv_core::Coo;
    use spmv_gen::GenSpec;
    use spmv_kernels::{BlockShape, KernelImpl};

    fn machine() -> MachineProfile {
        MachineProfile {
            bandwidth: 3e9,
            l1_bytes: 32 * 1024,
            llc_bytes: 4 << 20,
        }
    }

    #[test]
    fn mem_considers_only_scalar_configs() {
        let configs = candidate_configs(Model::Mem, true);
        assert!(configs.iter().all(|c| c.imp == KernelImpl::Scalar));
    }

    #[test]
    fn mem_selects_bcsr_for_pure_block_matrices() {
        // A pure 2x2-block matrix: BCSR 2x2 stores one index per four
        // values, so its working set is minimal and MEM must prefer a
        // blocked format over CSR.
        let mut coo = Coo::new(64, 64);
        for bi in 0..32 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                coo.push(2 * bi + di, 2 * bi + dj, 1.0).unwrap();
            }
        }
        let csr = Csr::from_coo(&coo);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let best = select(Model::Mem, &csr, &machine(), &profile, true);
        assert_ne!(
            best.config.block,
            BlockConfig::Csr,
            "MEM must pick blocking"
        );
        // And its ws must be below CSR's.
        let csr_ws: usize = Config::CSR.substats(&csr).iter().map(|s| s.ws_bytes).sum();
        let best_ws: usize = best.config.substats(&csr).iter().map(|s| s.ws_bytes).sum();
        assert!(best_ws < csr_ws);
    }

    #[test]
    fn scattered_matrix_keeps_csr() {
        // Isolated nonzeros: every blocked format pays padding or extra
        // structures, so CSR must win under every model.
        let csr = GenSpec::Random {
            n: 300,
            m: 300,
            nnz_per_row: 2,
        }
        .build(3);
        let profile = KernelProfile::uniform(1e-9, 1.0);
        for model in Model::ALL {
            let best = select(model, &csr, &machine(), &profile, true);
            assert_eq!(
                best.config.block,
                BlockConfig::Csr,
                "{model} should keep CSR on scatter"
            );
        }
    }

    #[test]
    fn extended_candidates_are_the_extended_space() {
        // Selection ranks every configuration the extended space
        // enumerates, in enumeration order; MEM sees the scalar half.
        assert_eq!(Config::enumerate_extended(true).len(), 129);
        assert_eq!(Config::enumerate_extended(false).len(), 65);
        for model in Model::ALL {
            let space = Config::enumerate_extended(model != Model::Mem);
            assert_eq!(candidate_configs_extended(model, true), space, "{model}");
            assert_eq!(
                candidate_configs_extended(model, false),
                Config::enumerate_extended(false),
                "{model}"
            );
        }
    }

    #[test]
    fn extended_select_keeps_csr_on_scatter() {
        // Same scattered matrix as `scattered_matrix_keeps_csr`: blocked
        // formats pay padding, so CSR wins the base space, and nothing in
        // the extended space streams fewer bytes at equal compute — SELL
        // slices pay slice pointers, lane lengths and the row
        // permutation on top of CSR's per-entry index. The proportional profile
        // (not the uniform one) is essential here: SELL-C-σ covers these
        // uniform-length rows with nnz/c wide "blocks", so a flat
        // per-block cost would hand it an artificial compute advantage
        // (see `extended_select_can_pick_sell`); charging per element
        // makes compute equal and lets byte traffic decide.
        let csr = GenSpec::Random {
            n: 300,
            m: 300,
            nnz_per_row: 2,
        }
        .build(3);
        let profile = KernelProfile::proportional(1e-9, 1.0);
        for model in Model::ALL {
            let best = select_extended(model, &csr, &machine(), &profile, true);
            assert_eq!(best.config, Config::CSR, "{model} picked {}", best.config);
        }
    }

    #[test]
    fn extended_select_can_pick_sell() {
        // Uniform-length rows are SELL's best case: nearly no padding,
        // and each c-row slice column covers c elements. Under a flat
        // per-block cost the compute-aware models must rank a SELL
        // configuration first, proving the format competes end-to-end
        // in the extended space. MEM is excluded: it sees only byte
        // traffic, where plain CSR stays smallest.
        let csr = GenSpec::Random {
            n: 300,
            m: 300,
            nnz_per_row: 2,
        }
        .build(3);
        let profile = KernelProfile::uniform(1e-9, 1.0);
        for model in [Model::MemComp, Model::Overlap] {
            let best = select_extended(model, &csr, &machine(), &profile, true);
            assert!(
                matches!(best.config.block, BlockConfig::SellCSigma { .. }),
                "{model} picked {} instead of a SELL config",
                best.config
            );
        }
    }

    #[test]
    fn extended_select_keeps_bcsr_on_block_matrices() {
        // The pure 2x2-block matrix: BCSR 2x2 streams one index per four
        // values with no padding, so under MEM the SELL configurations
        // the extended space adds (one index per stored entry) must not
        // displace it.
        let mut coo = Coo::new(64, 64);
        for bi in 0..32 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                coo.push(2 * bi + di, 2 * bi + dj, 1.0).unwrap();
            }
        }
        let csr = Csr::from_coo(&coo);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let bcsr = Config {
            block: BlockConfig::Bcsr(BlockShape::new(2, 2).unwrap()),
            imp: KernelImpl::Scalar,
        };
        let best = select_extended(Model::Mem, &csr, &machine(), &profile, true);
        assert_eq!(best.config, bcsr, "MEM picked {}", best.config);
    }

    #[test]
    fn memcomp_punishes_slow_kernels_where_mem_cannot() {
        // Give the 2x2 BCSR kernel an absurd per-block cost: MEMCOMP must
        // avoid it, MEM (blind to compute) must still pick it.
        let mut coo = Coo::new(64, 64);
        for bi in 0..32 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                coo.push(2 * bi + di, 2 * bi + dj, 1.0).unwrap();
            }
        }
        let csr = Csr::from_coo(&coo);
        let mut profile = KernelProfile::uniform(1e-12, 1.0);
        for imp in KernelImpl::ALL {
            profile.set(
                KernelKey::Bcsr {
                    shape: BlockShape::new(2, 2).unwrap(),
                    imp,
                },
                BlockTimes { t_b: 1.0, nof: 1.0 },
            );
        }
        let mem = select(Model::Mem, &csr, &machine(), &profile, false);
        let memcomp = select(Model::MemComp, &csr, &machine(), &profile, false);
        assert_eq!(
            mem.config.block,
            BlockConfig::Bcsr(BlockShape::new(2, 2).unwrap())
        );
        assert_ne!(
            memcomp.config.block,
            BlockConfig::Bcsr(BlockShape::new(2, 2).unwrap())
        );
    }

    #[test]
    fn rank_is_sorted_and_complete() {
        let csr = GenSpec::Stencil2d { nx: 12, ny: 12 }.build(0);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let configs = Config::enumerate(true);
        let ranked = rank(Model::Overlap, &csr, &machine(), &profile, &configs);
        assert_eq!(ranked.len(), configs.len());
        for w in ranked.windows(2) {
            assert!(w[0].predicted <= w[1].predicted);
        }
    }

    #[test]
    fn rank_multi_is_sorted_and_complete() {
        let csr = GenSpec::Stencil2d { nx: 12, ny: 12 }.build(0);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let configs = Config::enumerate(true);
        let ks = [1usize, 2, 4, 8];
        let ranked = rank_multi(Model::Overlap, &csr, &machine(), &profile, &configs, &ks);
        assert_eq!(ranked.len(), configs.len() * ks.len());
        for w in ranked.windows(2) {
            assert!(w[0].per_vector <= w[1].per_vector);
        }
        for c in &ranked {
            assert!((c.per_vector - c.predicted / c.k as f64).abs() < 1e-18);
        }
    }

    #[test]
    fn mem_prefers_larger_batches() {
        // Under MEM the per-vector cost strictly decreases with k for any
        // matrix with nonzero structure bytes, so the selection must take
        // the largest offered k.
        let csr = GenSpec::Stencil2d { nx: 16, ny: 16 }.build(0);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let configs = candidate_configs(Model::Mem, false);
        let ranked = rank_multi(
            Model::Mem,
            &csr,
            &machine(),
            &profile,
            &configs,
            &[1, 2, 4, 8],
        );
        assert_eq!(ranked[0].k, 8);
        // And for a fixed config, per-vector time is non-increasing in k.
        let stats = Config::CSR.substats(&csr);
        let mut prev = f64::INFINITY;
        for k in [1usize, 2, 4, 8] {
            let t = Model::Mem.predict_multi(&stats, k, &machine(), &profile) / k as f64;
            assert!(t <= prev);
            prev = t;
        }
    }

    #[test]
    fn multi_rank_agrees_with_single_at_k1() {
        let csr = GenSpec::Stencil2d { nx: 10, ny: 10 }.build(0);
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let configs = Config::enumerate(false);
        let single = rank(Model::MemComp, &csr, &machine(), &profile, &configs);
        let multi = rank_multi(Model::MemComp, &csr, &machine(), &profile, &configs, &[1]);
        for (s, m) in single.iter().zip(&multi) {
            assert_eq!(s.config, m.config);
            assert_eq!(s.predicted, m.predicted);
        }
    }

    #[test]
    fn measured_overrides_apply_only_what_they_carry() {
        let m = machine();
        let p = KernelProfile::uniform(1e-9, 0.5);
        let none = MeasuredOverrides::default();
        assert!(none.is_empty());
        let (m2, p2) = none.apply(&m, &p);
        assert_eq!(m2, m);
        assert_eq!(p2.get(KernelKey::Csr), p.get(KernelKey::Csr));

        let times = BlockTimes {
            t_b: 7e-9,
            nof: 0.9,
        };
        let ovr = MeasuredOverrides {
            bandwidth: Some(9e9),
            kernels: vec![(KernelKey::Csr, times)],
        };
        assert!(!ovr.is_empty());
        let (m3, p3) = ovr.apply(&m, &p);
        assert_eq!(m3.bandwidth, 9e9);
        assert_eq!(m3.l1_bytes, m.l1_bytes);
        assert_eq!(p3.get(KernelKey::Csr), times);
        // Keys not listed keep their profiled values.
        let other = KernelKey::Sell {
            c: 4,
            imp: KernelImpl::Scalar,
        };
        assert_eq!(p3.get(other), p.get(other));
        // Junk bandwidth is ignored rather than poisoning predictions.
        let junk = MeasuredOverrides {
            bandwidth: Some(f64::NAN),
            kernels: vec![],
        };
        assert_eq!(junk.apply(&m, &p).0.bandwidth, m.bandwidth);
    }

    #[test]
    fn measured_selection_is_plain_selection_on_overridden_inputs() {
        // The wrapper must add nothing: its result is exactly
        // select_extended on the post-apply profiles, candidate by
        // candidate.
        let csr = GenSpec::FemBlocks {
            nodes: 40,
            dof: 3,
            neighbors: 5,
        }
        .build(2);
        let m = machine();
        let p = KernelProfile::uniform(1e-9, 0.5);
        let ovr = MeasuredOverrides {
            bandwidth: Some(1.5e9),
            kernels: vec![(
                KernelKey::Bcsr {
                    shape: BlockShape::new(2, 2).unwrap(),
                    imp: KernelImpl::Simd,
                },
                BlockTimes {
                    t_b: 4e-8,
                    nof: 1.0,
                },
            )],
        };
        for model in Model::ALL {
            let (m2, p2) = ovr.apply(&m, &p);
            let direct = select_extended(model, &csr, &m2, &p2, true);
            let wrapped = select_extended_measured(model, &csr, &m, &p, true, &ovr);
            assert_eq!(direct, wrapped, "{model}");
        }
    }

    #[test]
    fn overlap_between_mem_and_memcomp_predictions() {
        let csr = GenSpec::FemBlocks {
            nodes: 40,
            dof: 3,
            neighbors: 5,
        }
        .build(2);
        let profile = KernelProfile::uniform(5e-9, 0.4);
        let m = machine();
        for config in Config::enumerate(false) {
            let stats = config.substats(&csr);
            let mem = Model::Mem.predict(&stats, &m, &profile);
            let ovl = Model::Overlap.predict(&stats, &m, &profile);
            let cmp = Model::MemComp.predict(&stats, &m, &profile);
            assert!(mem <= ovl + 1e-15 && ovl <= cmp + 1e-15, "{config}");
        }
    }
}
