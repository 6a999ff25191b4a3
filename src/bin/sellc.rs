//! `sellc`: SELL-C-σ padding sweep across row-length distributions.
//!
//! SELL-C-σ trades index traffic for padding: slices of C rows are
//! padded to the longest row in the slice, and a σ-windowed row sort
//! bounds how unequal the rows in one slice can be. This sweep makes
//! that tradeoff measurable. Three synthetic row-length distributions —
//! *banded* (uniform rows: padding-free best case), *power-law* (a few
//! dominant rows: σ decides everything), and *scatter* (random lengths
//! incl. empty rows: the padding-dominated regime from the ISSUE) — are
//! each swept over C ∈ {2, 4, 8} × σ ∈ {1, C, 64, n}. Per cell it
//! records occupancy, padding per nonzero, matrix bytes per nonzero
//! against the CSR baseline and the best of the blocked families
//! (BCSR/BCSD, padded and decomposed), the measured time per SpMV,
//! and the OVERLAP model's prediction residual — evidence that the
//! SubStat accounting charges SELL's padding the way it charges the
//! blocked formats' fill.
//!
//! ```sh
//! sellc                               # full sweep to results/sellc.txt
//! sellc --n 20000 --reps 2 --trials 1 # smoke-sized run
//! ```

use std::time::Instant;

use blocked_spmv::core::rng::Rng;
use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv};
use blocked_spmv::formats::{sell_sigmas, FormatKind, SellCSigma, SELL_SIGMA_FULL};
use blocked_spmv::kernels::{KernelImpl, SELL_HEIGHTS};
use blocked_spmv::model::{
    profile_keys, BlockConfig, Config, KernelProfile, MachineProfile, Model, ProfileOptions,
};

struct Opts {
    n: usize,
    width: usize,
    reps: usize,
    trials: usize,
    seed: u64,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        // Large enough that the value + column streams spill the
        // last-level cache, so padding shows up as time, not just bytes.
        n: 200_000,
        width: 12,
        reps: 5,
        trials: 6,
        seed: 42,
        out: "results/sellc.txt".to_string(),
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
            "--n" => opts.n = num("--n").max(256) as usize,
            "--width" => opts.width = num("--width").max(1) as usize,
            "--reps" => opts.reps = num("--reps").max(1) as usize,
            "--trials" => opts.trials = num("--trials").max(1) as usize,
            "--seed" => opts.seed = num("--seed"),
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path argument");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: sellc [--n N] [--width W] [--reps R] [--trials X] \
                     [--seed S] [--out FILE]"
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

/// The three row-length regimes the sweep contrasts.
#[derive(Clone, Copy)]
enum Dist {
    /// Every row has exactly `width` contiguous entries around the
    /// diagonal — uniform rows, so SELL stores zero padding at any σ.
    Banded,
    /// Zipf-like row lengths scattered over the row index space: a few
    /// rows are `~16x` longer than the median, so an unsorted slice
    /// pads every neighbour of a heavy row and σ decides the cost.
    PowerLaw,
    /// Uniformly random lengths in `0..2*width` (empty rows included)
    /// with columns scattered over the whole index range.
    Scatter,
}

impl Dist {
    const ALL: [Dist; 3] = [Dist::Banded, Dist::PowerLaw, Dist::Scatter];

    fn label(self) -> &'static str {
        match self {
            Dist::Banded => "banded",
            Dist::PowerLaw => "powerlaw",
            Dist::Scatter => "scatter",
        }
    }

    /// Nonzeros in row `i` of an `n`-row matrix with mean width `w`.
    fn row_len(self, i: usize, n: usize, w: usize, rng: &mut Rng) -> usize {
        match self {
            Dist::Banded => w,
            Dist::PowerLaw => {
                // Rank-by-hash so heavy rows land anywhere, not in a
                // prefix the slice layout would accidentally group.
                let rank = Rng::new(i as u64 ^ 0x94D0_49BB_1331_11EB).index(n) + 1;
                let scale = w as f64 * 0.55;
                let len = scale * (n as f64 / rank as f64).powf(0.5);
                (len as usize).clamp(1, 16 * w)
            }
            Dist::Scatter => rng.index(2 * w),
        }
    }
}

/// Builds the `n x n` test matrix for one distribution.
fn build_matrix(dist: Dist, n: usize, w: usize, seed: u64) -> Csr<f64> {
    let mut rng = Rng::new(seed);
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        let len = dist.row_len(i, n, w, &mut rng);
        for s in 0..len {
            let j = match dist {
                // Contiguous band clipped to the matrix edge.
                Dist::Banded => (i.saturating_sub(w / 2) + s).min(n - 1),
                _ => rng.index(n),
            };
            let v = (rng.next_u64() % 4000) as f64 / 1000.0 - 2.0;
            let v = if v == 0.0 { 0.5 } else { v };
            let _ = coo.push(i, j, v);
        }
    }
    Csr::from_coo(&coo)
}

/// Seconds per SpMV: best-of-`trials` means of `reps` back-to-back
/// products.
fn time_spmv<M: SpMv<f64>>(mat: &M, x: &[f64], reps: usize, trials: usize) -> f64 {
    let mut y = vec![0.0f64; mat.n_rows()];
    mat.spmv_into(x, &mut y); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..trials {
        let start = Instant::now();
        for _ in 0..reps {
            mat.spmv_into(x, &mut y);
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

/// Matrix bytes a configuration would store, from its [`SubStat`]s
/// (working set minus the shared vector traffic) — no build needed.
///
/// [`SubStat`]: blocked_spmv::model::SubStat
fn config_matrix_bytes(config: Config, csr: &Csr<f64>) -> usize {
    config
        .substats(csr)
        .iter()
        .map(|s| s.ws_bytes - s.vec_bytes)
        .sum()
}

/// Smallest stored bytes/nnz over the blocked (non-SELL, non-CSR)
/// families, with the winning family's label.
fn best_blocked_bytes(csr: &Csr<f64>) -> (f64, &'static str) {
    let nnz = csr.nnz().max(1) as f64;
    let mut best = (f64::INFINITY, "-");
    for config in Config::enumerate_extended(false) {
        let kind = config.block.kind();
        if matches!(kind, FormatKind::Csr | FormatKind::SellCSigma) {
            continue;
        }
        let bpn = config_matrix_bytes(config, csr) as f64 / nnz;
        if bpn < best.0 {
            best = (bpn, kind.label());
        }
    }
    best
}

fn main() {
    let opts = parse_opts();
    let imp = KernelImpl::Simd;

    // One calibration serves the whole sweep: OVERLAP needs the live
    // bandwidth plus t_b/nof for CSR and each SELL slice height.
    let probe = build_matrix(Dist::Scatter, opts.n, opts.width, opts.seed);
    let footprint = probe.working_set_bytes().max(8 << 20);
    let machine = MachineProfile::detect_with(footprint);
    let mut profile = KernelProfile::default();
    let popts = ProfileOptions {
        large_bytes: footprint,
        min_time: 2e-3,
        ..ProfileOptions::default()
    };
    let mut keys = vec![Config {
        block: BlockConfig::Csr,
        imp,
    }
    .kernel_key()];
    for &c in &SELL_HEIGHTS {
        let block = BlockConfig::SellCSigma { c, sigma: 1 };
        keys.push(Config { block, imp }.kernel_key());
    }
    for (key, times) in profile_keys::<f64>(&machine, &popts, &keys) {
        profile.set(key, times);
    }

    let mut out = String::new();
    let header = format!(
        "# sellc sweep: n={}, width={}, imp={imp:?}, seed={}\n\
         # dist c sigma occ pad/nnz B/nnz csr_B/nnz blocked_B/nnz blocked_best \
         sell_ms csr_ms resid",
        opts.n, opts.width, opts.seed
    );
    println!("{header}");
    out.push_str(&header);
    out.push('\n');

    for dist in Dist::ALL {
        let csr = build_matrix(dist, opts.n, opts.width, opts.seed);
        let nnz = csr.nnz().max(1) as f64;
        let x: Vec<f64> = (0..csr.n_cols())
            .map(|i| 0.5 + (i % 13) as f64 * 0.125)
            .collect();
        let t_csr = time_spmv(&csr, &x, opts.reps, opts.trials);
        let csr_bpn = csr.matrix_bytes() as f64 / nnz;
        let (blocked_bpn, blocked_label) = best_blocked_bytes(&csr);

        for &c in &SELL_HEIGHTS {
            for &sigma in &sell_sigmas(c) {
                let config = Config {
                    block: BlockConfig::SellCSigma { c, sigma },
                    imp,
                };
                let sell = SellCSigma::from_csr(&csr, c, sigma, imp);
                let t_sell = time_spmv(&sell, &x, opts.reps, opts.trials);
                let pred = Model::Overlap.predict(&config.substats(&csr), &machine, &profile);
                let sigma_label = if sigma == SELL_SIGMA_FULL {
                    "n".to_string()
                } else {
                    sigma.to_string()
                };
                let line = format!(
                    "{} {c} {sigma_label} {:.3} {:.2} {:.2} {csr_bpn:.2} \
                     {blocked_bpn:.2} {blocked_label} {:.4} {:.4} {:+.3}",
                    dist.label(),
                    sell.occupancy(),
                    (sell.padding() * std::mem::size_of::<f64>()) as f64 / nnz,
                    sell.matrix_bytes() as f64 / nnz,
                    t_sell * 1e3,
                    t_csr * 1e3,
                    rel_err(t_sell, pred),
                );
                println!("{line}");
                out.push_str(&line);
                out.push('\n');
            }
        }
    }

    if let Some(dir) = std::path::Path::new(&opts.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&opts.out, out).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
}
