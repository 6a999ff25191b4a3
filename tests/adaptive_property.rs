//! Property test for the tuner's decision rule: whatever the residuals,
//! clocks, and samplers do, the configuration the tuner publishes is
//! *exactly* what `select_extended_measured` ranks first under the same
//! measured inputs — the online loop adds detection and swap mechanics,
//! never its own opinion about the ranking.

#[path = "support/prop.rs"]
mod prop;

use std::sync::Arc;

use blocked_spmv::core::{Coo, Csr};
use blocked_spmv::model::{
    candidate_configs_extended, select_extended, select_extended_measured, BlockTimes, Config,
    KernelProfile, MachineProfile, MeasuredOverrides, Model,
};
use blocked_spmv::serve::{residual_key_for, MatrixId, PreparedMatrix, Registry};
use blocked_spmv::tune::{CannedSampler, DetectorConfig, ManualClock, Tuner, WatchSpec};

fn random_model(rng: &mut prop::Rng) -> Model {
    match rng.index(3) {
        0 => Model::Mem,
        1 => Model::MemComp,
        _ => Model::Overlap,
    }
}

fn random_machine(rng: &mut prop::Rng) -> MachineProfile {
    MachineProfile {
        bandwidth: rng.f64_in(1e9, 5e10),
        l1_bytes: 16 << (10 + rng.index(3)),
        llc_bytes: 1 << (20 + rng.index(4)),
    }
}

/// Drives one full stale → rerank → swap episode through a detached
/// tuner and returns the configuration it published.
fn tuner_choice(
    csr: &Arc<Csr<f64>>,
    model: Model,
    machine: MachineProfile,
    profile: &KernelProfile,
    sampler: CannedSampler,
) -> Config {
    let registry = Arc::new(Registry::new());
    let id = MatrixId(1);
    registry.publish(id, PreparedMatrix::from_config(Config::CSR, csr));
    let tuner = Tuner::new(
        Arc::clone(&registry),
        None,
        Arc::new(ManualClock::new(0)),
        Box::new(sampler),
    );
    let spec = WatchSpec {
        detector: DetectorConfig {
            window: 1,
            consecutive: 1,
            min_samples: 1,
            ..DetectorConfig::default()
        },
        ..WatchSpec::new(Arc::clone(csr), model, machine, profile.clone())
    };
    assert!(tuner.watch(id, spec));

    let key = residual_key_for(Config::CSR, model);
    tuner.residuals().record_for(id.0, &key, 1e-6, 1e-3);
    tuner.run_once();
    assert!(!tuner.panicked());
    let chosen = tuner.current_config(id).expect("still watched");
    assert_eq!(
        registry.get(id).expect("still published").config(),
        chosen,
        "published config and tuner bookkeeping must agree"
    );
    chosen
}

/// With no measured overrides at all, the swap target is the plain
/// `select_extended` winner.
#[test]
fn tuner_choice_matches_select_extended_without_overrides() {
    prop::run("choice_plain", 60, |rng, size| {
        let dim = 12 + size * 3;
        let (n, m, trips) = prop::sparse_triplets(rng, dim, dim, dim * 6, -4.0, 4.0);
        let csr = Arc::new(Csr::from_coo(
            &Coo::from_triplets(n, m, trips).expect("triplets in range"),
        ));
        let model = random_model(rng);
        let machine = random_machine(rng);
        let profile = KernelProfile::uniform(rng.f64_in(1e-10, 1e-8), rng.f64_in(0.0, 1.0));

        let chosen = tuner_choice(&csr, model, machine, &profile, CannedSampler::new());
        let expected = select_extended(model, &csr, &machine, &profile, true);
        assert_eq!(chosen, expected.config);
    });
}

/// With a canned live bandwidth and re-profiled suspect kernels, the
/// swap target is the `select_extended_measured` winner under exactly
/// those overrides. The tuner re-profiles only the suspect keys (the
/// incumbent's kernel), so the expected overrides are the sampler's
/// rows filtered the same way.
#[test]
fn tuner_choice_matches_select_extended_measured_with_overrides() {
    prop::run("choice_measured", 60, |rng, size| {
        let dim = 12 + size * 3;
        let (n, m, trips) = prop::sparse_triplets(rng, dim, dim, dim * 6, -4.0, 4.0);
        let csr = Arc::new(Csr::from_coo(
            &Coo::from_triplets(n, m, trips).expect("triplets in range"),
        ));
        let model = random_model(rng);
        let machine = random_machine(rng);
        let profile = KernelProfile::uniform(rng.f64_in(1e-10, 1e-8), rng.f64_in(0.0, 1.0));

        // Canned measurements: a perturbed live bandwidth (sometimes),
        // and re-profiled times for a random subset of candidate keys.
        let bandwidth = if rng.bool() {
            Some(machine.bandwidth * rng.f64_in(0.2, 5.0))
        } else {
            None
        };
        let mut rows: Vec<(_, BlockTimes)> = Vec::new();
        for config in candidate_configs_extended(model, true) {
            if rng.index(3) == 0 {
                let key = config.kernel_key();
                if rows.iter().all(|(k, _)| *k != key) {
                    rows.push((
                        key,
                        BlockTimes {
                            t_b: rng.f64_in(1e-10, 1e-8),
                            nof: rng.f64_in(0.0, 1.0),
                        },
                    ));
                }
            }
        }

        let mut sampler = CannedSampler::new().with_kernels(rows.clone());
        if let Some(bw) = bandwidth {
            sampler = sampler.with_bandwidth(bw);
        }
        let chosen = tuner_choice(&csr, model, machine, &profile, sampler);

        // The incumbent at stale time is CSR, so only its kernel key is
        // re-profiled; everything else keeps its profiled values.
        let suspect = Config::CSR.kernel_key();
        let overrides = MeasuredOverrides {
            bandwidth,
            kernels: rows.into_iter().filter(|(k, _)| *k == suspect).collect(),
        };
        let expected = select_extended_measured(model, &csr, &machine, &profile, true, &overrides);
        assert_eq!(chosen, expected.config);
    });
}
