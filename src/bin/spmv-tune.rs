//! `spmv-tune`: model-driven SpMV autotuning from the command line.
//!
//! Loads a matrix (a MatrixMarket `.mtx` file or a synthetic suite
//! entry), calibrates — or reloads — the machine profile, and prints
//! each performance model's recommended (format, block shape, kernel)
//! configuration. Optionally verifies the recommendation by measuring
//! the top candidates.
//!
//! ```sh
//! spmv-tune --mtx matrix.mtx
//! spmv-tune --suite 21 --scale 1.0 --verify
//! spmv-tune --suite 18 --profile calib.txt   # reuse a saved calibration
//! ```
//!
//! This is the *offline* tuner: one matrix, one decision, then exit.
//! The *online* counterpart — a background tuner that watches live
//! prediction residuals and hot-swaps selections under the serving
//! registry — lives in `blocked_spmv::tune` (see `docs/ADAPTIVE.md`
//! and the `serve_adapt` harness).

use blocked_spmv::core::{Csr, MatrixShape, SpMv};
use blocked_spmv::gen::{matrixmarket, random_vector, suite};
use blocked_spmv::model::timing::measure_spmv;
use blocked_spmv::model::{
    candidate_configs, load_profile, profile_kernels, rank, save_profile, select, Config,
    MachineProfile, Model, ProfileOptions,
};

struct Opts {
    mtx: Option<String>,
    suite_id: Option<usize>,
    scale: f64,
    profile_path: Option<String>,
    verify: bool,
    no_simd: bool,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        mtx: None,
        suite_id: None,
        scale: 1.0,
        profile_path: None,
        verify: false,
        no_simd: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mtx" => opts.mtx = args.next(),
            "--suite" => opts.suite_id = args.next().and_then(|v| v.parse().ok()),
            "--scale" => opts.scale = args.next().and_then(|v| v.parse().ok()).unwrap_or(1.0),
            "--profile" => opts.profile_path = args.next(),
            "--verify" => opts.verify = true,
            "--no-simd" => opts.no_simd = true,
            "--help" | "-h" => {
                println!(
                    "usage: spmv-tune (--mtx FILE | --suite ID [--scale F]) \
                     [--profile FILE] [--verify] [--no-simd]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option `{other}` (see --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn load_matrix(opts: &Opts) -> Csr<f64> {
    if let Some(path) = &opts.mtx {
        match matrixmarket::read_path(path) {
            Ok(csr) => return csr,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let id = opts.suite_id.unwrap_or_else(|| {
        eprintln!("either --mtx FILE or --suite ID is required (see --help)");
        std::process::exit(2);
    });
    let Some(entry) = suite(opts.scale).into_iter().find(|e| e.id == id) else {
        eprintln!("suite ids are 1..=30");
        std::process::exit(2);
    };
    println!(
        "suite matrix #{:02} {} ({}, {:?})",
        entry.id, entry.name, entry.domain, entry.geometry
    );
    entry.build(42)
}

fn main() {
    let opts = parse_opts();
    let csr = load_matrix(&opts);
    println!(
        "matrix: {} x {}, {} nonzeros, CSR working set {:.2} MiB",
        csr.n_rows(),
        csr.n_cols(),
        csr.nnz(),
        csr.working_set_bytes() as f64 / (1024.0 * 1024.0)
    );

    // Calibration: reload if the profile file exists (profiling any
    // kernel it lacks), else measure and (if a path was given) save.
    let footprint = csr.working_set_bytes().clamp(16 << 20, 256 << 20);
    let profile_opts = ProfileOptions {
        large_bytes: footprint.min(64 << 20),
        ..ProfileOptions::default()
    };
    let (machine, profile) = match &opts.profile_path {
        Some(path) if std::path::Path::new(path).exists() => {
            println!("loading calibration from {path}");
            let (machine, mut profile) = load_profile(path).unwrap_or_else(|e| {
                eprintln!("bad profile file: {e}");
                std::process::exit(1);
            });
            let filled = profile.fill_missing::<f64>(&machine, &profile_opts);
            println!("profiled {filled} kernels the calibration lacked");
            (machine, profile)
        }
        path => {
            println!("calibrating (STREAM triad + kernel profiles) ...");
            let machine = MachineProfile::detect_with(footprint);
            let profile = profile_kernels::<f64>(&machine, &profile_opts);
            println!("profiled {} kernels", profile.len());
            if let Some(path) = path {
                if let Err(e) = save_profile(&machine, &profile, path) {
                    eprintln!("warning: could not save calibration: {e}");
                } else {
                    println!("calibration saved to {path}");
                }
            }
            (machine, profile)
        }
    };
    println!(
        "machine: {:.2} GiB/s, L1 {} KiB, LLC {} MiB\n",
        machine.bandwidth / (1u64 << 30) as f64,
        machine.l1_bytes / 1024,
        machine.llc_bytes / (1024 * 1024)
    );

    let include_simd = !opts.no_simd;
    for model in Model::ALL {
        let pick = select(model, &csr, &machine, &profile, include_simd);
        println!(
            "{:>8} recommends {:<18} (predicted {:.3} ms/SpMV)",
            model.label(),
            pick.config.to_string(),
            pick.predicted * 1e3
        );
    }

    if opts.verify {
        println!("\nverifying: measuring OVERLAP's top 5 candidates + CSR ...");
        let configs = candidate_configs(Model::Overlap, include_simd);
        let ranked = rank(Model::Overlap, &csr, &machine, &profile, &configs);
        let x: Vec<f64> = random_vector(csr.n_cols(), 1);
        let mut to_measure: Vec<Config> = ranked.iter().take(5).map(|c| c.config).collect();
        if !to_measure.contains(&Config::CSR) {
            to_measure.push(Config::CSR);
        }
        for config in to_measure {
            let built = config.build(&csr);
            let t = measure_spmv(&built, &x, 5e-3, 3);
            let pred = ranked
                .iter()
                .find(|c| c.config == config)
                .map(|c| c.predicted)
                .unwrap_or(f64::NAN);
            println!(
                "  {:<18} measured {:>8.3} ms | predicted {:>8.3} ms",
                config.to_string(),
                t * 1e3,
                pred * 1e3
            );
        }
    }
}
