//! End-to-end tests of the model pipeline: statistics estimators vs
//! materialized formats, prediction invariants, and selection sanity on
//! structurally extreme matrices.
//!
//! The property tests run on the in-repo seeded harness
//! (`tests/support/prop.rs`), not proptest, so the suite builds and
//! shrinks offline.

use blocked_spmv::core::{Coo, Csr, SpMv};
use blocked_spmv::gen::GenSpec;
use blocked_spmv::model::{
    profile_kernels, rank, select, BlockConfig, Config, KernelProfile, MachineProfile, Model,
    ProfileOptions,
};

#[path = "support/prop.rs"]
mod prop;
use prop::Rng;

fn machine() -> MachineProfile {
    MachineProfile {
        bandwidth: 4e9,
        l1_bytes: 32 * 1024,
        llc_bytes: 4 << 20,
    }
}

/// Generator: a non-empty random CSR matrix with positive values,
/// dimensions and entry count scaled by the harness `size`.
fn gen_csr(rng: &mut Rng, size: usize) -> Csr<f64> {
    let (n_max, m_max) = prop::scaled_dims(size, 30);
    let n = rng.usize_in(1, n_max);
    let m = rng.usize_in(1, m_max);
    let k = rng.usize_in(1, 3 * size + 2);
    let entries: Vec<(usize, usize, f64)> = (0..k)
        .map(|_| (rng.index(n), rng.index(m), rng.f64_in(0.5, 2.0)))
        .collect();
    Csr::from_coo(&Coo::from_triplets(n, m, entries).unwrap())
}

#[test]
fn substats_working_sets_match_builds() {
    prop::run("substats_working_sets_match_builds", 48, |rng, size| {
        let csr = gen_csr(rng, size);
        for config in Config::enumerate(true) {
            let est: usize = config.substats(&csr).iter().map(|s| s.ws_bytes).sum();
            let real = config.build(&csr).working_set_bytes();
            assert_eq!(est, real, "ws mismatch for {config}");
        }
    });
}

#[test]
fn model_predictions_are_ordered() {
    prop::run("model_predictions_are_ordered", 48, |rng, size| {
        // With every nof in [0, 1]: MEM <= OVERLAP <= MEMCOMP, for every
        // configuration — the bound structure Figure 3 visualizes.
        let csr = gen_csr(rng, size);
        let nof = rng.f64_in(0.0, 1.0);
        let profile = KernelProfile::uniform(3e-9, nof);
        let m = machine();
        for config in Config::enumerate(false) {
            let stats = config.substats(&csr);
            let mem = Model::Mem.predict(&stats, &m, &profile);
            let ovl = Model::Overlap.predict(&stats, &m, &profile);
            let cmp = Model::MemComp.predict(&stats, &m, &profile);
            assert!(mem <= ovl + 1e-18 && ovl <= cmp + 1e-18, "{config}");
        }
    });
}

#[test]
fn predictions_scale_linearly_with_bandwidth() {
    prop::run(
        "predictions_scale_linearly_with_bandwidth",
        48,
        |rng, size| {
            // Doubling BW must halve the MEM prediction exactly.
            let csr = gen_csr(rng, size);
            let profile = KernelProfile::uniform(1e-9, 0.5);
            let m1 = machine();
            let m2 = MachineProfile {
                bandwidth: 2.0 * m1.bandwidth,
                ..m1
            };
            for config in Config::enumerate(false).into_iter().take(8) {
                let stats = config.substats(&csr);
                let t1 = Model::Mem.predict(&stats, &m1, &profile);
                let t2 = Model::Mem.predict(&stats, &m2, &profile);
                assert!((t1 - 2.0 * t2).abs() <= 1e-15 + 1e-9 * t1);
            }
        },
    );
}

#[test]
fn selection_is_argmin_of_rank() {
    prop::run("selection_is_argmin_of_rank", 48, |rng, size| {
        let csr = gen_csr(rng, size);
        let profile = KernelProfile::uniform(2e-9, 0.7);
        let m = machine();
        for model in Model::ALL {
            let best = select(model, &csr, &m, &profile, true);
            let configs = blocked_spmv::model::candidate_configs(model, true);
            let ranked = rank(model, &csr, &m, &profile, &configs);
            assert_eq!(best.config, ranked[0].config);
            assert!(best.predicted <= ranked.last().unwrap().predicted);
        }
    });
}

#[test]
fn fem_matrix_selects_a_blocked_format_end_to_end() {
    // A pure-block FEM matrix under the "ideal machine" profile (block
    // cost proportional to elements, so blocking is never penalized by
    // kernel quality): every model must steer away from CSR, because the
    // blocked working sets are strictly smaller and the total compute is
    // the same.
    let csr = GenSpec::FemBlocks {
        nodes: 400,
        dof: 3,
        neighbors: 8,
    }
    .build(5);
    let machine = machine();
    let profile = KernelProfile::proportional(1e-10, 0.5);
    for model in Model::ALL {
        let pick = select(model, &csr, &machine, &profile, true);
        assert_ne!(
            pick.config.block,
            BlockConfig::Csr,
            "{model} kept CSR on a pure-block FEM matrix"
        );
    }
}

#[test]
fn real_profile_selections_track_real_measurements() {
    // With a *measured* kernel profile (whatever this build's kernel
    // quality is), each model's selection must be self-consistent: its
    // predicted time is the minimum over its own candidate set.
    let csr = GenSpec::FemBlocks {
        nodes: 300,
        dof: 3,
        neighbors: 6,
    }
    .build(5);
    let machine = machine();
    let profile = profile_kernels::<f64>(
        &machine,
        &ProfileOptions {
            small_bytes: 4 * 1024,
            large_bytes: 64 * 1024,
            min_time: 2e-4,
            batches: 1,
        },
    );
    for model in Model::ALL {
        let pick = select(model, &csr, &machine, &profile, true);
        let configs = blocked_spmv::model::candidate_configs(model, true);
        for c in configs {
            let t = model.predict(&c.substats(&csr), &machine, &profile);
            assert!(
                pick.predicted <= t + 1e-15,
                "{model}: selection {} ({}) beaten by {c} ({t})",
                pick.config,
                pick.predicted
            );
        }
    }
}

#[test]
fn diagonal_matrix_prefers_bcsd_family_under_mem() {
    // A pure multi-diagonal matrix: BCSD's working set is the smallest
    // possible (one index per b elements, no padding in the interior), so
    // the MEM model must choose the BCSD family.
    let csr = GenSpec::DiagRuns { n: 600, n_diags: 3 }.build(1);
    let profile = KernelProfile::uniform(1e-9, 0.5);
    let pick = select(Model::Mem, &csr, &machine(), &profile, false);
    match pick.config.block {
        BlockConfig::Bcsd(_) | BlockConfig::BcsdDec(_) => {}
        other => panic!("expected a BCSD-family pick, got {other:?}"),
    }
}

#[test]
fn profiled_simd_kernels_are_never_slower_by_much() {
    // Sanity on real profiling output: the SIMD kernel's t_b should not
    // be wildly slower than the scalar one for the wide shapes it
    // actually vectorizes (allow 2x slack for measurement noise in tiny
    // profiling runs).
    let machine = machine();
    let profile = profile_kernels::<f32>(
        &machine,
        &ProfileOptions {
            small_bytes: 8 * 1024,
            large_bytes: 64 * 1024,
            min_time: 5e-4,
            batches: 2,
        },
    );
    let shape = blocked_spmv::kernels::BlockShape::new(1, 8).unwrap();
    let scalar = profile.get(blocked_spmv::model::KernelKey::Bcsr {
        shape,
        imp: blocked_spmv::kernels::KernelImpl::Scalar,
    });
    let simd = profile.get(blocked_spmv::model::KernelKey::Bcsr {
        shape,
        imp: blocked_spmv::kernels::KernelImpl::Simd,
    });
    assert!(
        simd.t_b < 2.0 * scalar.t_b,
        "1x8 f32 SIMD t_b {} vs scalar {}",
        simd.t_b,
        scalar.t_b
    );
}
