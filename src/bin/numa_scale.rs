//! `numa_scale`: flat vs NUMA-aware SpMV thread scaling, with model
//! residuals.
//!
//! Sweeps thread counts over one streaming matrix and times the same
//! [`SpmvPool`] strips under two pin policies:
//!
//! * **flat** — `PinPolicy::Compact`: worker `i` on core `i`, filling
//!   the first memory domain before the next;
//! * **domain** — `PinPolicy::Domains`: workers spread round-robin
//!   across memory domains.
//!
//! Every pool converts each strip on its own pinned worker (so its
//! pages are first-touched on that worker's domain) and nnz-splits a
//! heavy row; only the pinning differs. Each row of the sweep also
//! records what the multicore model expects: `predict_threaded` (one
//! shared bus) for the flat run and `predict_threaded_hierarchy`
//! (per-domain bandwidths measured by a pinned STREAM-triad sweep) for
//! the domain run, plus the relative residual of each prediction. On a
//! single-domain host the two policies are the same plan — the gap is
//! measurement noise — and the hierarchy prediction is the flat one.
//!
//! ```sh
//! numa_scale                            # detect topology, sweep 1..=cores
//! numa_scale --flat --threads 2 --out results/numa.txt   # tier-1 smoke
//! numa_scale --n 40000 --nnz 12 --reps 30
//! ```
//!
//! See `docs/NUMA.md` for the placement machinery this exercises.

use std::time::Instant;

use blocked_spmv::core::rng::Rng;
use blocked_spmv::core::{Csr, MatrixShape, SpMv};
use blocked_spmv::gen::GenSpec;
use blocked_spmv::model::{
    predict_threaded, predict_threaded_hierarchy, Config, KernelProfile, MachineProfile, Model,
};
use blocked_spmv::parallel::{csr_unit_weights, PinPolicy, SpmvPool, Topology};
use blocked_spmv::tune::MeasuredSampler;

struct Opts {
    threads: usize,
    n: usize,
    nnz_per_row: usize,
    reps: usize,
    trials: usize,
    seed: u64,
    flat: bool,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        threads: 0, // 0 = detect (available cores)
        n: 20_000,
        nnz_per_row: 8,
        reps: 20,
        trials: 3,
        seed: 9,
        flat: false,
        out: "results/numa.txt".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs an integer argument");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--threads" => opts.threads = num("--threads") as usize,
            "--n" => opts.n = num("--n").max(64) as usize,
            "--nnz" => opts.nnz_per_row = num("--nnz").max(1) as usize,
            "--reps" => opts.reps = num("--reps").max(1) as usize,
            "--trials" => opts.trials = num("--trials").max(1) as usize,
            "--seed" => opts.seed = num("--seed"),
            "--flat" => opts.flat = true,
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path argument");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: numa_scale [--threads T] [--n N] [--nnz K] [--reps R] \
                     [--trials X] [--seed S] [--flat] [--out FILE]"
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

/// Seconds per SpMV on `pool`: best-of-`trials` over the mean of `reps`
/// back-to-back epochs, after one warm-up epoch.
fn time_pool(pool: &SpmvPool<f64>, x: &[f64], reps: usize, trials: usize) -> f64 {
    let mut y = vec![0.0f64; pool.n_rows()];
    pool.spmv_into(x, &mut y); // warm-up: faults pages, parks settle
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..reps {
            pool.spmv_into(x, &mut y);
        }
        best = best.min(start.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

fn rel_err(measured: f64, predicted: f64) -> f64 {
    if measured <= 0.0 {
        return 0.0;
    }
    (predicted - measured) / measured
}

fn main() {
    let opts = parse_opts();
    let topology = if opts.flat {
        Topology::flat(blocked_spmv::parallel::affinity::available_cores())
    } else {
        Topology::detect()
    };
    let max_threads = if opts.threads > 0 {
        opts.threads
    } else {
        topology.n_cores()
    };

    let csr: Csr<f64> = GenSpec::Random {
        n: opts.n,
        m: opts.n,
        nnz_per_row: opts.nnz_per_row,
    }
    .build(opts.seed);
    let weights = csr_unit_weights(&csr);
    let x = Rng::new(opts.seed ^ 0xC0FFEE).f64_vec(csr.n_cols(), -1.0, 1.0);
    let reference = csr.spmv(&x);

    // Machine numbers: cache geometry from sysfs, per-domain bandwidths
    // from a pinned triad sweep (modest arrays so the smoke stays fast).
    let (l1_bytes, llc_bytes) = blocked_spmv::model::machine::cache_sizes();
    let mut sampler = MeasuredSampler::<f64>::new(
        MachineProfile {
            bandwidth: 4e9, // placeholder; replaced by the probe below
            l1_bytes,
            llc_bytes,
        },
        PinPolicy::None,
    );
    sampler.triad_elems = (8 << 20) / std::mem::size_of::<f64>();
    sampler.triad_min_time = 0.01;
    let hierarchy = sampler.measure_hierarchy(&topology);
    let machine = MachineProfile {
        bandwidth: hierarchy.domains()[0].local,
        l1_bytes,
        llc_bytes,
    };
    // A canned kernel profile keeps the run self-contained; residuals
    // are diagnostics of the bandwidth terms, not a calibrated fit.
    let profile = KernelProfile::uniform(1e-9, 0.5);

    let mut out = String::new();
    out.push_str(&format!(
        "numa_scale: domains={} cores={} matrix=Random(n={}, nnz/row={}) seed={} reps={} \
         trials={}{}\n",
        topology.n_domains(),
        topology.n_cores(),
        opts.n,
        opts.nnz_per_row,
        opts.seed,
        opts.reps,
        opts.trials,
        if opts.flat { " (forced flat)" } else { "" }
    ));
    for (d, bw) in hierarchy.domains().iter().enumerate() {
        out.push_str(&format!(
            "  domain {d}: local {:.2} GB/s, remote {:.2} GB/s\n",
            bw.local / 1e9,
            bw.remote / 1e9
        ));
    }
    out.push_str(
        "threads  flat_ms  domain_ms  dom/flat  pred_flat_ms  pred_dom_ms  resid_flat  resid_dom\n",
    );

    for t in 1..=max_threads {
        let flat_pool = SpmvPool::from_csr(&csr, t, &weights, 1, Csr::clone, PinPolicy::Compact);
        let domain_pool = SpmvPool::from_csr(
            &csr,
            t,
            &weights,
            1,
            Csr::clone,
            PinPolicy::Domains(topology.clone()),
        );
        assert_eq!(flat_pool.spmv(&x), reference, "flat pool must stay bitwise");
        assert_eq!(
            domain_pool.spmv(&x),
            reference,
            "domain pool must stay bitwise"
        );

        let flat_s = time_pool(&flat_pool, &x, opts.reps, opts.trials);
        let dom_s = time_pool(&domain_pool, &x, opts.reps, opts.trials);
        let pred_flat = predict_threaded(Model::Mem, &csr, &Config::CSR, t, &machine, &profile);
        let pred_dom = predict_threaded_hierarchy(
            Model::Mem,
            &csr,
            &Config::CSR,
            t,
            &machine,
            &profile,
            &hierarchy,
            None,
            None,
        );
        out.push_str(&format!(
            "{t:>7}  {:>7.3}  {:>9.3}  {:>8.2}  {:>12.3}  {:>11.3}  {:>+10.1}%  {:>+9.1}%\n",
            flat_s * 1e3,
            dom_s * 1e3,
            dom_s / flat_s,
            pred_flat * 1e3,
            pred_dom * 1e3,
            rel_err(flat_s, pred_flat) * 100.0,
            rel_err(dom_s, pred_dom) * 100.0,
        ));
    }
    if topology.n_domains() == 1 {
        out.push_str(
            "note: one memory domain — both pin policies compute the same plan; dom/flat deviates \
             from 1.00 only by timing noise (see EXPERIMENTS.md)\n",
        );
    }
    print!("{out}");
    if let Some(dir) = std::path::Path::new(&opts.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&opts.out, &out) {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);
}
