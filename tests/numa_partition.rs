//! NUMA partitioning properties: the static splitter's balance
//! invariants, bitwise reproducibility of the nnz-split fallback, and
//! the multicore model pricing exactly the strips the pool runs.

#[path = "support/prop.rs"]
mod prop;

use std::sync::Arc;

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv, SpMvMulti};
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::{
    predict_threaded, BlockConfig, Config, KernelProfile, MachineProfile, Model,
};
use blocked_spmv::parallel::{
    csr_unit_weights, heavy_unit, partition_units, remove_row, split_segments, PinPolicy, SpmvPool,
    Topology,
};
use blocked_spmv::serve::{EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine};

/// A random CSR whose shape/sparsity scale with the property size, with
/// an optional pathologically heavy row (a large fraction of all nnz in
/// one row — the shape the nnz-split fallback exists for).
fn random_csr(rng: &mut prop::Rng, size: usize, heavy: bool) -> Csr<f64> {
    let n = rng.usize_in(1, 4 + 4 * size);
    let m = rng.usize_in(1, 4 + 4 * size);
    let entries = rng.usize_in(0, 1 + 6 * size);
    let mut coo = Coo::new(n, m);
    for _ in 0..entries {
        coo.push(rng.index(n), rng.index(m), rng.f64_in(-2.0, 2.0))
            .unwrap();
    }
    if heavy {
        // One row holding ~4x the rest of the matrix combined.
        let row = rng.index(n);
        for _ in 0..(4 * entries).max(8) {
            coo.push(row, rng.index(m), rng.f64_in(-2.0, 2.0)).unwrap();
        }
    }
    Csr::from_coo(&coo)
}

#[test]
fn partition_units_balance_invariants() {
    prop::run("partition_units invariants", 200, |rng, size| {
        let n_units = rng.usize_in(1, 2 + 4 * size);
        // Mixed magnitudes, including zero-weight units.
        let weights: Vec<u64> = (0..n_units)
            .map(|_| {
                if rng.bool() {
                    rng.next_u64() % 8
                } else {
                    rng.next_u64() % 1000
                }
            })
            .collect();
        let parts = rng.usize_in(1, 2 + n_units);
        let ranges = partition_units(&weights, parts);

        // Shape: exactly `parts` contiguous ranges covering all units.
        assert_eq!(ranges.len(), parts);
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, n_units);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "parts must be contiguous");
        }

        // Balance: the cumulative weight through part p never overshoots
        // the ideal cumulative share by more than one unit's weight (the
        // documented greedy-prefix guarantee).
        let total: u64 = weights.iter().sum();
        let max_w = weights.iter().copied().max().unwrap_or(0);
        let mut cum = 0u64;
        for (p, r) in ranges.iter().enumerate() {
            cum += weights[r.clone()].iter().sum::<u64>();
            let target = total * (p as u64 + 1) / parts as u64;
            assert!(
                cum <= target + max_w,
                "part {p}: cumulative {cum} overshoots target {target} by more than \
                 max unit weight {max_w}"
            );
        }
    });
}

#[test]
fn heavy_unit_fires_iff_a_unit_exceeds_the_ideal_share() {
    prop::run("heavy_unit rule", 100, |rng, size| {
        let n_units = rng.usize_in(1, 2 + 4 * size);
        let weights: Vec<u64> = (0..n_units).map(|_| rng.next_u64() % 100).collect();
        let parts = rng.usize_in(1, 6);
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        match heavy_unit(&weights, parts) {
            Some(idx) => {
                assert!(parts > 1);
                assert_eq!(weights[idx], *weights.iter().max().unwrap());
                assert!(weights[idx] as u128 * parts as u128 > total);
            }
            None => {
                if parts > 1 {
                    let max = weights.iter().copied().max().unwrap_or(0);
                    assert!(max as u128 * parts as u128 <= total);
                }
            }
        }
    });
}

#[test]
fn split_segments_partition_the_nnz_range() {
    prop::run("split_segments coverage", 100, |rng, size| {
        let nnz = rng.usize_in(0, 1 + 50 * size);
        let parts = rng.usize_in(1, 9);
        let segs = split_segments(nnz, parts);
        assert_eq!(segs.len(), parts);
        let mut pos = 0usize;
        for s in &segs {
            assert_eq!(s.start, pos, "segments must be contiguous");
            pos = s.end;
        }
        assert_eq!(pos, nnz, "segments must cover all nnz");
        let (min, max) = segs.iter().fold((usize::MAX, 0), |(lo, hi), s| {
            (lo.min(s.len()), hi.max(s.len()))
        });
        assert!(max - min <= 1, "near-equal segment sizes: {min}..{max}");
    });
}

/// The nnz-split fallback must be invisible in the output: every pooled
/// result — across thread counts, single and multi-vector — is bitwise
/// the serial CSR answer. 200 seeded matrices, roughly half with a
/// pathological heavy row.
#[test]
fn nnz_split_pools_are_bitwise_equal_to_serial() {
    prop::run("nnz-split bitwise corpus", 200, |rng, size| {
        let heavy = rng.bool();
        let csr = random_csr(rng, size, heavy);
        let x = rng.f64_vec(csr.n_cols(), -1.0, 1.0);
        let reference = csr.spmv(&x);
        let threads = rng.usize_in(1, 5);
        let pool = SpmvPool::from_csr(
            &csr,
            threads,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            PinPolicy::None,
        );
        assert_eq!(pool.spmv(&x), reference, "single-vector must be bitwise");

        // Multi-vector: k columns, each column bitwise its serial SpMV.
        let k = rng.usize_in(1, 5);
        let xs: Vec<Vec<f64>> = (0..k)
            .map(|_| rng.f64_vec(csr.n_cols(), -1.0, 1.0))
            .collect();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let mut ys = vec![0.0; k * csr.n_rows()];
        pool.spmv_multi_into(&flat, &mut ys, k);
        for (t, xt) in xs.iter().enumerate() {
            let expect = csr.spmv(xt);
            assert_eq!(
                &ys[t * csr.n_rows()..(t + 1) * csr.n_rows()],
                &expect[..],
                "multi-vector column {t} must be bitwise"
            );
        }
    });
}

#[test]
fn single_heavy_row_matrix_splits_and_stays_bitwise() {
    // The pathological extreme: every nonzero in one row.
    let n = 6usize;
    let m = 300usize;
    let mut coo = Coo::new(n, m);
    let mut state = 0xFEED_u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for c in 0..m {
        let v = (next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        coo.push(3, c, v).unwrap();
    }
    let csr = Csr::from_coo(&coo);
    let x: Vec<f64> = (0..m)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
        .collect();
    let reference = csr.spmv(&x);
    for threads in [2, 3, 4, 7] {
        let pool = SpmvPool::from_csr(
            &csr,
            threads,
            &csr_unit_weights(&csr),
            1,
            Csr::clone,
            PinPolicy::None,
        );
        assert_eq!(pool.split_row(), Some(3), "threads={threads}");
        assert_eq!(pool.spmv(&x), reference, "threads={threads}");
    }
}

/// The multicore model prices the strips the pool runs, for every
/// family: `predict_threaded` is the largest prediction over the pool's
/// own `strip_rows()`, each strip priced at `bandwidth / threads`. 40
/// seeded matrices, half with a heavy row the pool shears out of the
/// balance: a strip then holds its rows with that row emptied, plus its
/// worker's segment of the row priced as a one-row CSR pass.
#[test]
fn predict_threaded_prices_the_pool_strips() {
    let imp = KernelImpl::Scalar;
    let configs = [
        BlockConfig::Csr,
        BlockConfig::Bcsr(BlockShape::new(2, 3).unwrap()),
        BlockConfig::BcsrDec(BlockShape::new(3, 1).unwrap()),
        BlockConfig::Bcsd(4),
        BlockConfig::BcsdDec(3),
        BlockConfig::SellCSigma { c: 4, sigma: 8 },
    ]
    .map(|block| Config { block, imp });
    prop::run("model prices the pool strips", 40, |rng, size| {
        let heavy = rng.bool();
        let csr = random_csr(rng, size, heavy);
        let machine = MachineProfile {
            bandwidth: rng.f64_in(1e9, 5e10),
            l1_bytes: 32 << 10,
            llc_bytes: 8 << 20,
        };
        let profile = KernelProfile::uniform(rng.f64_in(1e-10, 1e-8), rng.f64_in(0.1, 1.0));
        for config in configs {
            let (weights, height) = config.pool_units(&csr);
            for threads in 1..=4 {
                let pool = SpmvPool::from_csr(
                    &csr,
                    threads,
                    &weights,
                    height,
                    move |s| config.build(s),
                    PinPolicy::None,
                );
                let shared = MachineProfile {
                    bandwidth: machine.bandwidth / threads as f64,
                    ..machine
                };
                let strip_rows = pool.strip_rows();
                let sheared = pool.split_row();
                let rest = sheared.map(|row| remove_row(&csr, row));
                let stats: Vec<_> = strip_rows
                    .iter()
                    .enumerate()
                    .map(|(s, rows)| {
                        let strip = rest.as_ref().unwrap_or(&csr).row_slice(rows.clone());
                        let mut stats = config.substats(&strip);
                        if let Some(row) = sheared {
                            let (cols, vals) = csr.row(row);
                            let seg = split_segments(cols.len(), strip_rows.len())[s].clone();
                            if !seg.is_empty() {
                                let share = Csr::from_raw(
                                    1,
                                    csr.n_cols(),
                                    vec![0, seg.len() as u32],
                                    cols[seg.clone()].to_vec(),
                                    vals[seg].to_vec(),
                                )
                                .unwrap();
                                stats.extend(Config::CSR.substats(&share));
                            }
                        }
                        stats
                    })
                    .collect();
                for model in Model::ALL {
                    let strips = stats
                        .iter()
                        .map(|stats| model.predict(stats, &shared, &profile));
                    assert_eq!(
                        predict_threaded(model, &csr, &config, threads, &machine, &profile),
                        strips.fold(0.0, f64::max),
                        "{config} {model:?} x{threads}"
                    );
                }
            }
        }
    });
}

/// Pin failures must degrade, not corrupt: a pool whose cores cannot be
/// pinned (absurd ids) computes bitwise-correct results and reports the
/// unpinned state per strip.
#[test]
fn unpinnable_pool_is_bitwise_and_reports_unpinned_strips() {
    let coo = Coo::from_triplets(
        40,
        40,
        (0..40)
            .flat_map(|i| [(i, i, 1.0 + i as f64), (i, (i * 7) % 40, 0.5)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let csr = Csr::from_coo(&coo);
    let x: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
    let pool = SpmvPool::from_csr(
        &csr,
        2,
        &csr_unit_weights(&csr),
        1,
        Csr::clone,
        PinPolicy::Cores(vec![1 << 20, (1 << 20) + 1]),
    );
    assert_eq!(pool.spmv(&x), csr.spmv(&x));
    let _ = pool.spmv(&x);
    for report in pool.strip_reports() {
        assert_eq!(report.pinned, Some(false), "absurd cores cannot pin");
    }
}

/// Oversubscribed pin policies surface in the serving report: one
/// warning line per affected matrix, none when placement is healthy.
#[test]
fn engine_report_warns_on_oversubscribed_pools() {
    let csr = Csr::from_coo(
        &Coo::from_triplets(16, 16, (0..16).map(|i| (i, i, 2.0)).collect::<Vec<_>>()).unwrap(),
    );
    let registry = Arc::new(Registry::new());
    // Two workers forced onto one core: oversubscribed.
    registry.publish(
        MatrixId(1),
        PreparedMatrix::from_config_pooled(Config::CSR, &csr, 2, PinPolicy::Cores(vec![0])),
    );
    // Healthy single-thread direct backend alongside.
    registry.publish(MatrixId(2), PreparedMatrix::from_config(Config::CSR, &csr));
    let engine = ServeEngine::new(Arc::clone(&registry), EngineOptions::default());
    let report = engine.report();
    assert_eq!(report.warnings.len(), 1, "exactly the pooled matrix warns");
    assert!(
        report.warnings[0].contains("oversubscribes"),
        "warning should name the condition: {}",
        report.warnings[0]
    );

    // Domain-spread pinning over a fake 2-domain topology with enough
    // cores is healthy: no warnings.
    let topology = Topology::from_domains(vec![vec![0], vec![1]]);
    let registry2 = Arc::new(Registry::<f64>::new());
    registry2.publish(
        MatrixId(1),
        PreparedMatrix::from_config_pooled(Config::CSR, &csr, 2, PinPolicy::Domains(topology)),
    );
    let engine2 = ServeEngine::new(Arc::clone(&registry2), EngineOptions::default());
    assert!(engine2.report().warnings.is_empty());
}
