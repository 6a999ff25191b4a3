//! Deterministic state-machine tests for the adaptive tuner
//! (`blocked_spmv::tune`): every detector transition asserted under
//! seeded residual streams, hysteresis that never flaps, and full
//! stale → rerank → swap → recover episodes replayed under a mock
//! clock with zero timing dependence.

#[path = "support/prop.rs"]
mod prop;

use std::sync::Arc;

use blocked_spmv::core::{Coo, Csr};
use blocked_spmv::model::{Config, KernelProfile, MachineProfile, Model};
use blocked_spmv::serve::{residual_key_for, MatrixId, PreparedMatrix, Registry};
use blocked_spmv::tune::{
    CannedSampler, DetectorConfig, ManualClock, StalenessDetector, TimelineKind, Tuner, Verdict,
    WatchSpec,
};

fn machine() -> MachineProfile {
    MachineProfile {
        bandwidth: 8e9,
        l1_bytes: 32 << 10,
        llc_bytes: 8 << 20,
    }
}

fn small_csr() -> Arc<Csr<f64>> {
    let trips = (0..32)
        .map(|i| (i, (i * 7) % 32, 1.0 + i as f64))
        .collect::<Vec<_>>();
    Arc::new(Csr::from_coo(
        &Coo::from_triplets(32, 32, trips).expect("triplets in range"),
    ))
}

/// A tuner watching one hand-published CSR matrix, no engine attached:
/// residuals are recorded by hand and passes driven by `run_once`.
fn watched_tuner(
    detector: DetectorConfig,
    clock: Arc<ManualClock>,
) -> (Arc<Registry<f64>>, Tuner<f64>, MatrixId) {
    let csr = small_csr();
    let registry = Arc::new(Registry::new());
    let id = MatrixId(1);
    registry.publish(id, PreparedMatrix::from_config(Config::CSR, &csr));
    let tuner = Tuner::new(
        Arc::clone(&registry),
        None,
        clock,
        Box::new(CannedSampler::new()),
    );
    let spec = WatchSpec {
        detector,
        ..WatchSpec::new(
            csr,
            Model::Overlap,
            machine(),
            KernelProfile::uniform(1e-9, 0.5),
        )
    };
    assert!(tuner.watch(id, spec), "matrix is published, watch succeeds");
    (registry, tuner, id)
}

/// Records one residual whose `|rel err|` is exactly `rel` (prediction
/// fixed, measurement scaled) for the watched matrix's current key.
fn record_rel(tuner: &Tuner<f64>, id: MatrixId, model: Model, rel: f64) {
    let config = tuner.current_config(id).expect("watched");
    let key = residual_key_for(config, model);
    let predicted = 1e-5;
    let measured = predicted / (1.0 + rel);
    tuner
        .residuals()
        .record_for(id.0, &key, predicted, measured);
}

// ---------------------------------------------------------------------
// Detector state machine, transition by transition.
// ---------------------------------------------------------------------

#[test]
fn detector_walks_every_transition_in_order() {
    let mut d = StalenessDetector::new(DetectorConfig {
        window: 2,
        enter: 0.35,
        exit: 0.15,
        consecutive: 2,
        cooldown: 2,
        min_samples: 2,
    });

    // Warming until min_samples, then Healthy on a low window.
    assert_eq!(d.verdict(), Verdict::Warming);
    assert_eq!(d.observe(0.05), Verdict::Warming);
    assert_eq!(d.observe(0.05), Verdict::Healthy);

    // One bad value: window mean (0.05 + 0.9)/2 = 0.475 > enter.
    assert_eq!(d.observe(0.9), Verdict::Suspect(1));
    // Second consecutive over-enter window confirms staleness.
    assert_eq!(d.observe(0.9), Verdict::Stale);
    assert!(d.is_stale());

    // Stale is latched: even perfect residuals cannot clear it.
    assert_eq!(d.observe(0.0), Verdict::Stale);
    assert_eq!(d.observe(0.0), Verdict::Stale);

    // The swap clears the latch; cooldown discards the transient.
    d.on_swap();
    assert_eq!(d.verdict(), Verdict::CoolingDown);
    assert_eq!(d.observe(5.0), Verdict::CoolingDown);
    assert_eq!(d.observe(5.0), Verdict::CoolingDown);
    assert_eq!(d.len(), 0, "cooldown observations never enter the window");

    // Refill the window below exit: Recovered fires exactly once.
    assert_eq!(d.observe(0.1), Verdict::Warming);
    assert_eq!(d.observe(0.1), Verdict::Recovered);
    assert_eq!(d.observe(0.1), Verdict::Healthy);
}

#[test]
fn detector_hysteresis_band_never_flaps() {
    let cfg = DetectorConfig {
        window: 4,
        enter: 0.5,
        exit: 0.2,
        consecutive: 3,
        cooldown: 4,
        min_samples: 2,
    };
    let mut d = StalenessDetector::new(cfg);
    // Establish Healthy first.
    for _ in 0..4 {
        d.observe(0.05);
    }
    assert_eq!(d.verdict(), Verdict::Healthy);

    // A seeded stream oscillating inside the band (exit, enter] must
    // never escalate to Stale: the band holds state in both directions.
    let mut rng = prop::Rng::new(0x5EED_BA9D);
    for _ in 0..500 {
        let v = rng.f64_in(0.25, 0.45);
        let verdict = d.observe(v);
        assert!(
            !matches!(verdict, Verdict::Stale),
            "band value {v} latched stale"
        );
    }
    assert!(!d.is_stale());
}

#[test]
fn detector_suspect_requires_consecutive_windows() {
    let mut d = StalenessDetector::new(DetectorConfig {
        window: 1,
        enter: 0.35,
        exit: 0.15,
        consecutive: 3,
        cooldown: 0,
        min_samples: 1,
    });
    // Two over-enter observations, then a healthy one: count clears.
    assert_eq!(d.observe(0.9), Verdict::Suspect(1));
    assert_eq!(d.observe(0.9), Verdict::Suspect(2));
    assert_eq!(d.observe(0.05), Verdict::Healthy);
    // It takes the full consecutive run to latch.
    assert_eq!(d.observe(0.9), Verdict::Suspect(1));
    assert_eq!(d.observe(0.9), Verdict::Suspect(2));
    assert_eq!(d.observe(0.9), Verdict::Stale);
}

#[test]
fn detector_ignores_non_finite_and_counts_observations() {
    let mut d = StalenessDetector::new(DetectorConfig::default());
    d.observe(0.1);
    let before = d.verdict();
    assert_eq!(d.observe(f64::NAN), before);
    assert_eq!(d.observe(f64::INFINITY), before);
    assert_eq!(d.len(), 1, "non-finite values never enter the window");
    assert_eq!(d.observations(), 1);
}

#[test]
fn detector_seeded_streams_are_reproducible() {
    let cfg = DetectorConfig {
        window: 6,
        enter: 0.4,
        exit: 0.15,
        consecutive: 2,
        cooldown: 3,
        min_samples: 3,
    };
    let replay = |seed: u64| -> Vec<Verdict> {
        let mut d = StalenessDetector::new(cfg.clone());
        let mut rng = prop::Rng::new(seed);
        let mut out = Vec::new();
        for i in 0..300 {
            let v = rng.f64_in(0.0, 1.0);
            let verdict = d.observe(v);
            if verdict == Verdict::Stale && i % 7 == 0 {
                d.on_swap();
            }
            out.push(verdict);
        }
        out
    };
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        assert_eq!(replay(seed), replay(seed), "seed {seed} diverged");
    }
}

// ---------------------------------------------------------------------
// Full tuner episodes under a mock clock.
// ---------------------------------------------------------------------

#[test]
fn tuner_replays_full_episode_under_manual_clock() {
    let clock = Arc::new(ManualClock::new(1_000));
    let detector = DetectorConfig {
        window: 2,
        enter: 0.35,
        exit: 0.15,
        consecutive: 2,
        cooldown: 2,
        min_samples: 2,
    };
    let (registry, tuner, id) = watched_tuner(detector, Arc::clone(&clock));
    assert_eq!(registry.version_of(id), Some(1));

    // Healthy traffic: no publishes, verdict settles Healthy.
    for _ in 0..4 {
        record_rel(&tuner, id, Model::Overlap, 0.02);
    }
    assert!(
        tuner.run_once().is_empty(),
        "healthy pass publishes nothing"
    );
    assert_eq!(tuner.verdict_for(id), Some(Verdict::Healthy));
    assert_eq!(registry.version_of(id), Some(1));

    // Drift the residuals: 4 windows far over `enter` latch the
    // detector, and the same pass reranks and hot-swaps.
    clock.set(5_000);
    for _ in 0..4 {
        record_rel(&tuner, id, Model::Overlap, 2.0);
    }
    let events = tuner.run_once();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TimelineKind::Stale { .. })),
        "stale must be reported: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            TimelineKind::Swapped { .. } | TimelineKind::Confirmed { .. }
        )),
        "a stale pass must republish: {events:?}"
    );
    assert!(
        events.iter().all(|e| e.t_ns == 5_000),
        "timestamps come from the injected clock only: {events:?}"
    );
    let v2 = registry.version_of(id).expect("still published");
    assert!(v2 > 1, "stale pass must bump the registry version");
    assert_eq!(tuner.verdict_for(id), Some(Verdict::CoolingDown));

    // Cooldown discards two, then two healthy windows prove recovery.
    clock.set(9_000);
    for _ in 0..4 {
        record_rel(&tuner, id, Model::Overlap, 0.02);
    }
    let events = tuner.run_once();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TimelineKind::Recovered { .. })),
        "recovery must be reported: {events:?}"
    );
    assert!(events.iter().all(|e| e.t_ns == 9_000));
    assert_eq!(tuner.verdict_for(id), Some(Verdict::Healthy));
    assert_eq!(
        registry.version_of(id),
        Some(v2),
        "recovery must not republish"
    );

    // Recovered fires exactly once.
    for _ in 0..4 {
        record_rel(&tuner, id, Model::Overlap, 0.02);
    }
    assert!(tuner.run_once().is_empty());
    assert!(!tuner.panicked());
}

#[test]
fn tuner_decisions_are_clock_independent() {
    // The same residual schedule replayed under a frozen clock and under
    // an advancing clock must make identical decisions — the clock is
    // only a timestamp source, never an input to the state machine.
    let detector = DetectorConfig {
        window: 2,
        enter: 0.35,
        exit: 0.15,
        consecutive: 2,
        cooldown: 1,
        min_samples: 1,
    };
    let run = |advance: bool| -> Vec<TimelineKind> {
        let clock = Arc::new(ManualClock::new(0));
        let (_registry, tuner, id) = watched_tuner(detector.clone(), Arc::clone(&clock));
        let mut rng = prop::Rng::new(0xC10C);
        for step in 0..6 {
            if advance {
                clock.advance(1_000 + step);
            }
            let rel = if step % 3 == 2 {
                3.0
            } else {
                rng.f64_in(0.0, 0.1)
            };
            for _ in 0..3 {
                record_rel(&tuner, id, Model::Overlap, rel);
            }
            tuner.run_once();
        }
        tuner.timeline().into_iter().map(|e| e.kind).collect()
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn tuner_hysteresis_band_traffic_never_swaps() {
    let clock = Arc::new(ManualClock::new(0));
    let detector = DetectorConfig {
        window: 4,
        enter: 0.5,
        exit: 0.2,
        consecutive: 3,
        cooldown: 4,
        min_samples: 2,
    };
    let (registry, tuner, id) = watched_tuner(detector, clock);
    let mut rng = prop::Rng::new(0xF1A9);
    for _ in 0..40 {
        for _ in 0..4 {
            record_rel(&tuner, id, Model::Overlap, rng.f64_in(0.25, 0.45));
        }
        tuner.run_once();
    }
    assert_eq!(
        registry.version_of(id),
        Some(1),
        "band traffic must never republish"
    );
    assert!(tuner
        .timeline()
        .iter()
        .all(|e| matches!(e.kind, TimelineKind::Watch { .. })));
}
