//! `census`: the measured oracle model-driven selection is judged
//! against.
//!
//! For every matrix of the 30-matrix suite, times every configuration of
//! [`Config::enumerate_extended`] (SIMD included) against plain CSR. Each
//! configuration's timing batches alternate with CSR's (CSR, config,
//! CSR, config, …), and the census keeps the median over the pairs of
//! the ratio within each pair: adjacent batches share the host's state,
//! so their ratio is steadier than either time. It records:
//!
//! * per matrix: the configuration OVERLAP selects over the extended
//!   candidate list, its time over CSR's and over the fastest measured
//!   configuration's, and that fastest configuration;
//! * per family: the matrices on which one of its configurations comes
//!   within 5% of the fastest, and the range of its fastest
//!   configuration's time over CSR's.
//!
//! A selector should never serve a configuration that measures slower
//! than CSR, and a family that never comes within 5% of the fastest does
//! not earn its place in the candidate list (Chen et al.,
//! arXiv:1805.11938, judge format selectors against the same kind of
//! measured oracle).
//!
//! ```sh
//! census                                       # full census to results/census.txt
//! census --scale 0.02 --trials 1 --out c.txt   # smoke-sized run
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use blocked_spmv::bench::Table;
use blocked_spmv::core::{Csr, MatrixShape, SpMv};
use blocked_spmv::gen::{random_vector, suite};
use blocked_spmv::model::{
    load_profile, select_extended, Config, MachineProfile, Model, ProfileOptions,
};

/// A configuration within this factor of the fastest counts as a
/// near-win for its family.
const NEAR_BEST: f64 = 1.05;

struct Opts {
    scale: f64,
    seed: u64,
    profile: String,
    min_time: f64,
    trials: usize,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        scale: 1.0,
        seed: 7,
        profile: "benchmark/profile.txt".to_string(),
        min_time: 2e-3,
        trials: 7,
        out: "results/census.txt".to_string(),
    };
    let mut args = std::env::args().skip(1);
    let fail = |msg: String| -> ! {
        eprintln!("{msg} (see --help)");
        std::process::exit(2);
    };
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(format!("{name} needs an argument")))
        };
        let mut number = |name: &str| -> f64 {
            let v = value(name);
            v.parse()
                .ok()
                .filter(|x: &f64| x.is_finite() && *x > 0.0)
                .unwrap_or_else(|| fail(format!("{name}: `{v}` is not a positive number")))
        };
        match a.as_str() {
            "--scale" => opts.scale = number("--scale"),
            "--seed" => {
                let v = value("--seed");
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| fail(format!("--seed: bad integer `{v}`")));
            }
            "--profile" => opts.profile = value("--profile"),
            "--min-time" => opts.min_time = number("--min-time"),
            "--trials" => opts.trials = number("--trials") as usize,
            "--out" => opts.out = value("--out"),
            "--help" | "-h" => {
                println!(
                    "usage: census [--scale S] [--seed N] [--profile PATH] \
                     [--min-time SECONDS] [--trials T] [--out FILE]"
                );
                std::process::exit(0);
            }
            other => fail(format!("unknown option `{other}`")),
        }
    }
    opts.trials = opts.trials.max(1);
    opts
}

/// Seconds per call of `m`: the mean of `reps` back-to-back calls.
fn batch(m: &impl SpMv<f64>, x: &[f64], y: &mut [f64], reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        m.spmv_into(x, y);
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// `m`'s time over `csr`'s: the median over `trials` adjacent pairs of
/// batches (CSR, then `m`) of the pair's ratio.
fn ratio_to_csr(csr: &Csr<f64>, m: &impl SpMv<f64>, x: &[f64], reps: usize, trials: usize) -> f64 {
    let mut y = vec![0.0; csr.n_rows()];
    m.spmv_into(x, &mut y); // warm-up
    let mut ratios: Vec<f64> = (0..trials)
        .map(|_| {
            let t_csr = batch(csr, x, &mut y, reps);
            batch(m, x, &mut y, reps) / t_csr
        })
        .collect();
    std::hint::black_box(&y);
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// One matrix's census: every configuration's time over CSR's, and the
/// OVERLAP selection.
struct MatrixCensus {
    id: usize,
    name: &'static str,
    nnz: usize,
    selected: Config,
    ratios: Vec<(Config, f64)>,
}

impl MatrixCensus {
    fn ratio_of(&self, config: Config) -> f64 {
        self.ratios
            .iter()
            .find(|(c, _)| *c == config)
            .map_or(f64::NAN, |(_, r)| *r)
    }

    fn best(&self) -> (Config, f64) {
        self.ratios
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("the census measures at least CSR")
    }
}

fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

fn render(opts: &Opts, machine: &MachineProfile, filled: usize, census: &[MatrixCensus]) -> String {
    let configs = Config::enumerate_extended(true);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# census: scale {} seed {} profile {} ({} keys filled) | triad {:.2} GB/s | \
         {} configs x {} matrices | median ratio of {} alternating batch pairs, >= {} ms each",
        opts.scale,
        opts.seed,
        opts.profile,
        filled,
        machine.bandwidth / 1e9,
        configs.len(),
        census.len(),
        opts.trials,
        opts.min_time * 1e3
    );

    let mut per_matrix = Table::new(vec![
        "Matrix",
        "nnz",
        "OVERLAP selects",
        "sel/CSR",
        "sel/best",
        "fastest",
        "best/CSR",
    ]);
    for m in census {
        let (best, best_r) = m.best();
        let sel_r = m.ratio_of(m.selected);
        per_matrix.add_row(vec![
            format!("{:02}.{}", m.id, m.name),
            m.nnz.to_string(),
            m.selected.to_string(),
            format!("{sel_r:.2}"),
            format!("{:.2}", sel_r / best_r),
            best.to_string(),
            format!("{best_r:.2}"),
        ]);
    }
    let slower = census
        .iter()
        .filter(|m| m.ratio_of(m.selected) > NEAR_BEST)
        .count();
    let sel_vs_csr = geomean(census.iter().map(|m| 1.0 / m.ratio_of(m.selected)));
    let best_vs_csr = geomean(census.iter().map(|m| 1.0 / m.best().1));
    let _ = writeln!(
        out,
        "{}",
        per_matrix.title(format!(
            "Per matrix (times over CSR's; > 1 is slower) | selected slower than CSR by > 5%: \
             {slower} of {} | geomean CSR/selected {sel_vs_csr:.2}, CSR/fastest {best_vs_csr:.2}",
            census.len()
        ))
    );

    let mut families: Vec<&'static str> = Vec::new();
    for c in &configs {
        if !families.contains(&c.block.kind().label()) {
            families.push(c.block.kind().label());
        }
    }
    let mut per_family = Table::new(vec![
        "Family",
        "configs",
        "fastest",
        "within 5%",
        "matrices",
        "family best/CSR",
        "slower than CSR",
    ]);
    for family in families {
        let n_configs = configs
            .iter()
            .filter(|c| c.block.kind().label() == family)
            .count();
        let mut wins = 0;
        let mut near = Vec::new();
        let (mut lo, mut hi, mut slower) = (f64::INFINITY, 0.0f64, 0);
        for m in census {
            let (best, best_r) = m.best();
            wins += usize::from(best.block.kind().label() == family);
            let family_best = m
                .ratios
                .iter()
                .filter(|(c, _)| c.block.kind().label() == family)
                .map(|(_, r)| *r)
                .fold(f64::INFINITY, f64::min);
            if family_best <= NEAR_BEST * best_r {
                near.push(m.id.to_string());
            }
            lo = lo.min(family_best);
            hi = hi.max(family_best);
            slower += usize::from(family_best > NEAR_BEST);
        }
        per_family.add_row(vec![
            family.to_string(),
            n_configs.to_string(),
            wins.to_string(),
            near.len().to_string(),
            if near.is_empty() {
                "-".to_string()
            } else {
                near.join(",")
            },
            format!("{lo:.2}-{hi:.2}"),
            slower.to_string(),
        ]);
    }
    let _ = write!(
        out,
        "{}",
        per_family.title(
            "Per family: matrices won outright, matrices where one of the family's configs \
             comes within 5% of the fastest, and the family's fastest config over CSR \
             (range over matrices; slower = more than 5% slower)"
        )
    );
    out
}

fn main() {
    let opts = parse_opts();
    let (machine, mut profile) = load_profile(&opts.profile).unwrap_or_else(|e| {
        eprintln!("cannot load profile {}: {e}", opts.profile);
        std::process::exit(1);
    });
    let filled = profile.fill_missing::<f64>(&machine, &ProfileOptions::default());
    let configs = Config::enumerate_extended(true);
    let mut census = Vec::new();
    for entry in suite(opts.scale) {
        let t0 = Instant::now();
        let csr = entry.build(opts.seed);
        let x: Vec<f64> = random_vector(csr.n_cols(), opts.seed ^ entry.id as u64);
        let selected = select_extended(Model::Overlap, &csr, &machine, &profile, true).config;
        let mut y = vec![0.0; csr.n_rows()];
        csr.spmv_into(&x, &mut y);
        let t1 = batch(&csr, &x, &mut y, 1).max(1e-9);
        let reps = ((opts.min_time / t1).ceil() as usize).max(1);
        let ratios = configs
            .iter()
            .map(|&c| (c, ratio_to_csr(&csr, &c.build(&csr), &x, reps, opts.trials)))
            .collect();
        let m = MatrixCensus {
            id: entry.id,
            name: entry.name,
            nnz: csr.nnz(),
            selected,
            ratios,
        };
        let (best, best_r) = m.best();
        eprintln!(
            "{:02}.{}: selects {} ({:.2} of CSR), fastest {} ({:.2}) [{:.1} s]",
            m.id,
            m.name,
            m.selected,
            m.ratio_of(m.selected),
            best,
            best_r,
            t0.elapsed().as_secs_f64()
        );
        census.push(m);
    }
    let text = render(&opts, &machine, filled, &census);
    print!("{text}");
    if let Some(dir) = std::path::Path::new(&opts.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&opts.out, text).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    });
}
