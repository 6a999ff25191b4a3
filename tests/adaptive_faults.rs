//! Fault-injection tests for the adaptive serving stack: hot-swaps
//! racing live dispatches must never produce a torn reply (every answer
//! is bitwise-equal to the serial SpMV of *some* published version),
//! and a panicking tuner must be isolated — the last-good selection
//! keeps serving.

#[path = "support/prop.rs"]
mod prop;

use std::sync::Arc;

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv};
use blocked_spmv::model::{KernelProfile, MachineProfile, Model};
use blocked_spmv::serve::{
    residual_key_for, EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine,
};
use blocked_spmv::tune::{
    CannedSampler, DetectorConfig, ManualClock, TimelineKind, Tuner, WatchSpec,
};

fn machine() -> MachineProfile {
    MachineProfile {
        bandwidth: 8e9,
        l1_bytes: 32 << 10,
        llc_bytes: 8 << 20,
    }
}

/// Publish-during-dispatch torture: for 200 seeded structures, a
/// publisher thread hammers the registry with value-distinct versions
/// of the matrix while a client keeps a deep pipeline of requests in
/// flight. Every reply must be bitwise-identical to the serial SpMV of
/// one of the published versions — a reply computed from a torn mix of
/// two versions matches none of the references.
#[test]
fn publish_during_dispatch_replies_match_some_version_bitwise() {
    const VARIANTS: usize = 3;
    const XS: usize = 3;
    const REQUESTS: usize = 24;

    prop::run("publish_during_dispatch", 200, |rng, size| {
        let dim = 8 + size.min(24);
        let (n, m, trips) = prop::sparse_triplets(rng, dim, dim, dim * 7, -4.0, 4.0);

        // Value-distinct variants of one structure. Scaling every value
        // by a different constant keeps the sparsity pattern (so every
        // variant prepares under any format) while making the reference
        // vectors pairwise distinct.
        let variants: Vec<Arc<Csr<f64>>> = (0..VARIANTS)
            .map(|v| {
                let scaled: Vec<_> = trips
                    .iter()
                    .map(|&(r, c, x)| (r, c, x * (v as f64 + 1.0)))
                    .collect();
                Arc::new(Csr::from_coo(
                    &Coo::from_triplets(n, m, scaled).expect("triplets in range"),
                ))
            })
            .collect();
        let prepared: Vec<PreparedMatrix<f64>> = variants
            .iter()
            .map(|csr| {
                PreparedMatrix::prepare(
                    csr,
                    Model::Overlap,
                    &machine(),
                    &KernelProfile::uniform(1e-9, 0.5),
                    true,
                )
            })
            .collect();

        let xs: Vec<Vec<f64>> = (0..XS).map(|_| rng.f64_vec(m, -2.0, 2.0)).collect();
        let refs: Vec<Vec<Vec<f64>>> = prepared
            .iter()
            .map(|p| xs.iter().map(|x| p.spmv(x)).collect())
            .collect();
        for v in 1..VARIANTS {
            assert_ne!(
                refs[0], refs[v],
                "variant references must be distinct for the torn check to bite"
            );
        }

        let configs: Vec<_> = prepared.iter().map(|p| p.config()).collect();

        let registry = Arc::new(Registry::new());
        let id = MatrixId(9);
        let mut prepared = prepared;
        registry.publish(id, prepared.remove(0));
        let engine = ServeEngine::new(Arc::clone(&registry), EngineOptions::default());

        // Publisher thread: republish the variants round-robin while the
        // client's pipeline is in flight.
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let publisher = {
            let registry = Arc::clone(&registry);
            let variants = variants.clone();
            let configs = configs.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    v = (v + 1) % VARIANTS;
                    registry.publish(id, PreparedMatrix::from_config(configs[v], &variants[v]));
                    std::thread::yield_now();
                }
            })
        };

        let tickets: Vec<_> = (0..REQUESTS)
            .map(|i| {
                engine
                    .submit(id, xs[i % XS].clone())
                    .expect("admission open")
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let y = t.wait().expect("request completes");
            let xi = i % XS;
            assert!(
                refs.iter().any(|r| r[xi].as_slice() == y.as_slice()),
                "reply {i} matches no published version: torn mix"
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        publisher.join().expect("publisher joins");
    });
}

/// A tuner whose sampler panics mid-reprofile must be isolated: the
/// panic is latched as a timeline event, nothing gets published, and
/// the engine keeps serving bitwise-correct replies from the last-good
/// selection. Further passes are no-ops instead of repeated panics.
#[test]
fn tuner_panic_is_isolated_and_last_good_selection_keeps_serving() {
    let trips: Vec<(usize, usize, f64)> = (0..64)
        .map(|i| (i % 16, (i * 5) % 16, 0.5 + i as f64))
        .collect();
    let csr = Arc::new(Csr::from_coo(
        &Coo::from_triplets(16, 16, trips).expect("triplets in range"),
    ));
    let registry = Arc::new(Registry::new());
    let id = MatrixId(3);
    let prepared = PreparedMatrix::prepare(
        &csr,
        Model::Overlap,
        &machine(),
        &KernelProfile::uniform(1e-9, 0.5),
        true,
    );
    let x: Vec<f64> = (0..csr.n_cols()).map(|i| (i as f64).sin()).collect();
    let reference = prepared.spmv(&x);
    registry.publish(id, prepared);
    let engine = Arc::new(ServeEngine::new(
        Arc::clone(&registry),
        EngineOptions::default(),
    ));

    let tuner = Tuner::new(
        Arc::clone(&registry),
        Some(Arc::clone(&engine)),
        Arc::new(ManualClock::new(0)),
        Box::new(CannedSampler::new().panicking()),
    );
    let spec = WatchSpec {
        detector: DetectorConfig {
            window: 2,
            consecutive: 2,
            min_samples: 1,
            ..DetectorConfig::default()
        },
        ..WatchSpec::new(
            Arc::clone(&csr),
            Model::Overlap,
            machine(),
            KernelProfile::uniform(1e-9, 0.5),
        )
    };
    assert!(tuner.watch(id, spec));
    let version_before = registry.version_of(id).expect("published");

    // Force staleness so the pass reaches the (panicking) reprofile.
    let key = residual_key_for(tuner.current_config(id).expect("watched"), Model::Overlap);
    for _ in 0..4 {
        tuner.residuals().record_for(id.0, &key, 1e-6, 1e-4);
    }
    let events = tuner.run_once();
    assert!(tuner.panicked(), "the injected sampler fault must latch");
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TimelineKind::PanicIsolated { .. })),
        "the panic must be reported on the timeline: {events:?}"
    );
    assert_eq!(
        registry.version_of(id),
        Some(version_before),
        "a panicked pass must not publish"
    );

    // The engine is unaffected: the last-good selection keeps serving
    // bitwise-correct replies.
    for _ in 0..8 {
        let y = engine.submit_wait(id, x.clone()).expect("still serving");
        assert_eq!(y, reference, "last-good selection must serve unchanged");
    }

    // Later passes are no-ops: the tuner stays latched rather than
    // panicking (or publishing) again.
    for _ in 0..4 {
        tuner.residuals().record_for(id.0, &key, 1e-6, 1e-4);
    }
    assert!(tuner.run_once().is_empty(), "latched tuner must be a no-op");
    assert_eq!(registry.version_of(id), Some(version_before));
}
