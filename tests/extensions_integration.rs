//! Integration coverage of the extension modules through the public
//! facade: calibration persistence round-trips feed selection, the
//! heuristic and the models agree on easy cases, and the multicore and
//! latency extensions compose with the core pipeline.

use blocked_spmv::gen::GenSpec;
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::{
    input_vector_miss_estimate, load_profile, predict_overlap_lat, predict_threaded,
    predicted_saturation_point, read_profile, select, select_bcsr_shape, write_profile,
    BlockConfig, Config, DenseProfile, KernelProfile, LatencyProfile, MachineProfile, Model,
    ProfileOptions,
};

fn machine() -> MachineProfile {
    MachineProfile {
        bandwidth: 5e9,
        l1_bytes: 32 * 1024,
        llc_bytes: 4 << 20,
    }
}

#[test]
fn persisted_profile_drives_identical_selections() {
    // Selection from a reloaded profile must match selection from the
    // original — calibration is fully captured by the file.
    let csr = GenSpec::FemBlocks {
        nodes: 300,
        dof: 3,
        neighbors: 7,
    }
    .build(3);
    let m = machine();
    let profile = KernelProfile::proportional(2e-9, 0.6);
    let mut buf = Vec::new();
    write_profile(&m, &profile, &mut buf).unwrap();
    let (m2, p2) = read_profile(&buf[..]).unwrap();
    for model in Model::ALL {
        let a = select(model, &csr, &m, &profile, true);
        let b = select(model, &csr, &m2, &p2, true);
        assert_eq!(a.config, b.config, "{model}");
        assert!((a.predicted - b.predicted).abs() < 1e-15);
    }
}

#[test]
fn heuristic_and_models_agree_on_a_pure_block_matrix() {
    // On a matrix of perfect 2x2 blocks with an "ideal" cost model, the
    // heuristic's BCSR pick and the models' BCSR-family pick coincide in
    // shape family: both must choose a shape that tiles without padding.
    let mut coo = blocked_spmv::core::Coo::new(120, 120);
    for bi in 0..60 {
        for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            coo.push(2 * bi + di, 2 * bi + dj, 1.0).unwrap();
        }
    }
    let csr = blocked_spmv::core::Csr::from_coo(&coo);

    // Heuristic with a rate table that mildly favors bigger blocks.
    let mut dense = DenseProfile::default();
    for shape in BlockShape::search_space() {
        for imp in KernelImpl::ALL {
            dense.set(shape, imp, 1e9 * (1.0 + 0.05 * shape.elems() as f64));
        }
    }
    let (h_shape, _, _) = select_bcsr_shape(&csr, &dense, false);
    let h_stats = blocked_spmv::formats::bcsr_stats(&csr, h_shape);
    assert_eq!(h_stats.stored, csr.nnz(), "heuristic pick {h_shape} pads");

    // Models restricted to BCSR: same no-padding property.
    let m = machine();
    let profile = KernelProfile::proportional(1e-10, 0.5);
    let bcsr_only: Vec<Config> = Config::enumerate(false)
        .into_iter()
        .filter(|c| matches!(c.block, BlockConfig::Bcsr(_)))
        .collect();
    for model in Model::ALL {
        let pick = blocked_spmv::model::rank(model, &csr, &m, &profile, &bcsr_only)[0].config;
        if let BlockConfig::Bcsr(shape) = pick.block {
            let st = blocked_spmv::formats::bcsr_stats(&csr, shape);
            assert_eq!(st.stored, csr.nnz(), "{model} pick {shape} pads");
        } else {
            unreachable!("filtered to BCSR");
        }
    }
}

#[test]
fn multicore_prediction_composes_with_all_configs() {
    let csr = GenSpec::Stencil3d {
        nx: 12,
        ny: 12,
        nz: 12,
    }
    .build(1);
    let m = machine();
    let profile = KernelProfile::proportional(1e-9, 0.5);
    for config in Config::enumerate(false).into_iter().take(12) {
        let t1 = predict_threaded(Model::Overlap, &csr, &config, 1, &m, &profile);
        let t4 = predict_threaded(Model::Overlap, &csr, &config, 4, &m, &profile);
        assert!(t1 > 0.0 && t4 > 0.0, "{config}");
        // With shared bandwidth, 4 threads can never be predicted more
        // than 4x faster.
        assert!(t4 > t1 / 4.0 - 1e-15, "{config}: {t1} -> {t4}");
    }
    let sat = predicted_saturation_point(Model::Mem, &csr, &Config::CSR, 8, &m, &profile);
    assert!((1..=8).contains(&sat));
}

#[test]
fn latency_extension_orders_matrices_by_irregularity() {
    let m = MachineProfile {
        llc_bytes: 32 * 1024, // force out-of-cache x
        ..machine()
    };
    let profile = KernelProfile::proportional(1e-9, 0.5);
    let lat = LatencyProfile {
        load_latency: 1.5e-7,
        footprint: 1 << 20,
    };
    let mats = [
        GenSpec::ClusteredRandom {
            n: 800,
            m: 20_000,
            runs_per_row: 1,
            run_len: 12,
        }
        .build(1),
        GenSpec::Random {
            n: 800,
            m: 20_000,
            nnz_per_row: 12,
        }
        .build(1),
    ];
    let miss0 = input_vector_miss_estimate(&mats[0], &m, 8);
    let miss1 = input_vector_miss_estimate(&mats[1], &m, 8);
    assert!(
        miss1 > 4.0 * miss0,
        "irregular should miss far more: {miss0} vs {miss1}"
    );
    let t0 = predict_overlap_lat(&mats[0], &Config::CSR, &m, &profile, &lat);
    let t1 = predict_overlap_lat(&mats[1], &Config::CSR, &m, &profile, &lat);
    assert!(t1 > t0);
}

#[test]
fn saved_profile_file_is_human_auditable() {
    // The persistence format is line-oriented text a reviewer can read:
    // check the expected record types appear.
    let m = machine();
    let profile = KernelProfile::proportional(1e-9, 0.25);
    let mut buf = Vec::new();
    write_profile(&m, &profile, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.starts_with("blocked-spmv-profile v1"));
    assert!(text.contains("\nmachine "));
    assert!(text.contains("\ncsr "));
    assert!(text.contains("\nbcsr 2 2 scalar "));
    assert!(text.contains("\nbcsd 4 simd "));
    assert!(text.contains("\nsell 4 simd "));
    // 1 header + 1 machine + 59 kernel lines (csr + 38 bcsr + 14 bcsd
    // + 6 sell heights × impls).
    assert_eq!(text.trim_end().lines().count(), 61);
}

#[test]
fn committed_benchmark_profile_covers_the_extended_candidates() {
    // The benchmark selects with the pinned calibration
    // `benchmark/profile.txt` and profiles any kernel key it lacks on the
    // spot, inside its set-up time. Every key the extended candidates
    // need must therefore be in the file, so filling it profiles nothing.
    // (The file was written while formats since deleted still existed;
    // `read_profile` checks their lines and skips them.)
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/profile.txt");
    let (machine, mut profile) = load_profile(path).expect("the committed calibration loads");
    assert_eq!(
        profile.fill_missing::<f64>(&machine, &ProfileOptions::default()),
        0
    );
}
