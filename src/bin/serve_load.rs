//! `serve_load`: load generator for the SpMV serving layer.
//!
//! Publishes a mix of synthetic matrices into a [`Registry`], then fires
//! the same closed-loop traffic at two [`ServeEngine`] configurations —
//! coalescing (`max_batch = 8`) and uncoalesced (`max_batch = 1`) — and
//! reports throughput, realized batch widths, and request latency
//! percentiles side by side. Every reply is checked bitwise against the
//! matrix's own single-vector SpMV before it counts, so the throughput
//! numbers are for *verified* answers.
//!
//! ```sh
//! serve_load                               # defaults: 2000 reqs, fan-in 8
//! serve_load --requests 200 --seed 7       # the tier-1 smoke invocation
//! serve_load --fanin 16 --skew 1.5 --out results/serving.txt
//! ```
//!
//! The traffic model: `--fanin` client threads each loop { pick a matrix
//! by Zipf(`--skew`) popularity, pick one of its canned input vectors,
//! submit, wait, verify } until `--requests` total replies have been
//! verified. Closed-loop fan-in is what creates coalescing opportunity:
//! the submissions that queue up while the dispatcher runs a round, aimed
//! at the same (popular) matrix, go out together in one SpMM call.
//! See `docs/SERVING.md` for the architecture this exercises.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blocked_spmv::core::rng::Rng;
use blocked_spmv::core::{Csr, MatrixShape, SpMv};
use blocked_spmv::gen::GenSpec;
use blocked_spmv::model::{KernelProfile, MachineProfile, Model};
use blocked_spmv::serve::{
    EngineOptions, EngineReport, MatrixId, PreparedMatrix, Registry, ServeEngine,
};
use blocked_spmv::telemetry;

/// Distinct input vectors canned per matrix; references are precomputed
/// so client-side verification costs a `memcmp`, not a second SpMV.
const XS_PER_MATRIX: usize = 4;

struct Opts {
    requests: u64,
    matrices: usize,
    fanin: usize,
    depth: usize,
    trials: usize,
    seed: u64,
    skew: f64,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        requests: 2000,
        matrices: 4,
        fanin: 8,
        depth: 8,
        trials: 3,
        seed: 7,
        skew: 1.2,
        out: "results/serving.txt".to_string(),
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
            "--requests" => opts.requests = num("--requests"),
            "--matrices" => opts.matrices = num("--matrices").max(1) as usize,
            "--fanin" => opts.fanin = num("--fanin").max(1) as usize,
            "--depth" => opts.depth = num("--depth").max(1) as usize,
            "--trials" => opts.trials = num("--trials").max(1) as usize,
            "--seed" => opts.seed = num("--seed"),
            "--skew" => {
                opts.skew = args.next().and_then(|v| v.parse().ok()).unwrap_or(1.2);
            }
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path argument");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: serve_load [--requests N] [--matrices M] [--fanin F] \
                     [--depth D] [--trials T] [--seed S] [--skew A] \
                     [--out FILE]"
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

/// The published mix: one matrix per rotation through shapes the paper's
/// suite leans on (FEM blocks, stencils, random sparsity).
fn specs(matrices: usize) -> Vec<GenSpec> {
    let rotation = [
        GenSpec::Stencil2d { nx: 140, ny: 140 },
        GenSpec::FemBlocks {
            nodes: 4000,
            dof: 3,
            neighbors: 6,
        },
        GenSpec::Random {
            n: 16_000,
            m: 16_000,
            nnz_per_row: 8,
        },
        GenSpec::Stencil3d {
            nx: 24,
            ny: 24,
            nz: 24,
        },
    ];
    (0..matrices)
        .map(|i| rotation[i % rotation.len()].clone())
        .collect()
}

/// Zipf popularity: weight of rank `r` is `1 / (r + 1)^skew`, sampled by
/// inverting the cumulative table.
struct Popularity {
    cdf: Vec<f64>,
}

impl Popularity {
    fn new(n: usize, skew: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(skew)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Popularity { cdf }
    }

    fn pick(&self, unit: f64) -> usize {
        self.cdf
            .iter()
            .position(|&c| unit <= c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// One published matrix plus its canned inputs and verified references.
struct Workload {
    id: MatrixId,
    xs: Vec<Vec<f64>>,
    refs: Vec<Vec<f64>>,
}

struct RunOutcome {
    elapsed: Duration,
    report: EngineReport,
    request_pcts: Option<Vec<u64>>,
}

/// Fires `requests` closed-loop requests from `fanin` client threads and
/// returns wall time + the engine's own accounting.
fn run_traffic(
    registry: &Arc<Registry<f64>>,
    workloads: &Arc<Vec<Workload>>,
    opts: &Opts,
    max_batch: usize,
) -> RunOutcome {
    telemetry::clear();
    let engine = Arc::new(ServeEngine::new(
        Arc::clone(registry),
        EngineOptions {
            max_batch,
            ..EngineOptions::default()
        },
    ));
    let popularity = Arc::new(Popularity::new(workloads.len(), opts.skew));
    let issued = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let clients: Vec<_> = (0..opts.fanin)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let workloads = Arc::clone(workloads);
            let popularity = Arc::clone(&popularity);
            let issued = Arc::clone(&issued);
            let total = opts.requests;
            let depth = opts.depth;
            let mut rng = Rng::new(opts.seed ^ (c as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
            std::thread::spawn(move || {
                let mut mismatches = 0u64;
                loop {
                    // Pipelined closed loop: keep up to `depth` requests
                    // in flight before waiting, like an async client with
                    // bounded concurrency. Depth is what gives the
                    // dispatcher something to coalesce.
                    let mut inflight = Vec::with_capacity(depth);
                    for _ in 0..depth {
                        if issued.fetch_add(1, Ordering::Relaxed) >= total {
                            break;
                        }
                        let wi = popularity.pick(rng.unit());
                        let w = &workloads[wi];
                        let xi = rng.index(XS_PER_MATRIX);
                        let t = engine
                            .submit(w.id, w.xs[xi].clone())
                            .expect("closed-loop traffic cannot saturate the queue");
                        inflight.push((t, wi, xi));
                    }
                    if inflight.is_empty() {
                        return mismatches;
                    }
                    for (t, wi, xi) in inflight {
                        let y = t.wait().expect("request must complete");
                        if y != workloads[wi].refs[xi] {
                            mismatches += 1;
                        }
                    }
                }
            })
        })
        .collect();
    let mismatches: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    let elapsed = start.elapsed();
    assert_eq!(
        mismatches, 0,
        "served results must be bitwise-equal to single-vector SpMV"
    );
    let report = engine.report();
    let request_pcts = telemetry::summary::span_percentiles(
        &telemetry::snapshot(),
        "serve.request",
        &[50.0, 95.0, 99.0],
    );
    RunOutcome {
        elapsed,
        report,
        request_pcts,
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn describe(label: &str, o: &RunOutcome, requests: u64, out: &mut String) {
    let secs = o.elapsed.as_secs_f64();
    let rep = &o.report;
    out.push_str(&format!(
        "{label}: {:.0} req/s ({requests} requests in {:.3} s)\n",
        requests as f64 / secs,
        secs
    ));
    out.push_str(&format!(
        "  batches={} mean_width={:.2} by_k={{",
        rep.batches,
        rep.mean_batch_width()
    ));
    for (i, (k, n)) in rep.dispatches_by_k.iter().enumerate() {
        out.push_str(&format!("{}k{k}:{n}", if i == 0 { "" } else { ", " }));
    }
    out.push_str("}\n");
    if let Some(lat) = rep.latency {
        out.push_str(&format!(
            "  latency_us p50={:.1} p95={:.1} p99={:.1} max={:.1}",
            us(lat.p50_ns),
            us(lat.p95_ns),
            us(lat.p99_ns),
            us(lat.max_ns)
        ));
    }
    if let Some(p) = &o.request_pcts {
        out.push_str(&format!(
            "  (telemetry serve.request p50={:.1} p95={:.1} p99={:.1})",
            us(p[0]),
            us(p[1]),
            us(p[2])
        ));
    }
    out.push('\n');
}

fn main() {
    let opts = parse_opts();
    telemetry::set_enabled(true);

    // A canned machine/kernel profile keeps selection deterministic and
    // start-up instant; a real deployment would calibrate once and save.
    let machine = MachineProfile {
        bandwidth: 8e9,
        l1_bytes: 32 << 10,
        llc_bytes: 8 << 20,
    };
    let profile = KernelProfile::uniform(1e-9, 0.5);

    let registry = Arc::new(Registry::new());
    let mut workloads = Vec::new();
    let mut header = String::new();
    header.push_str(&format!(
        "serve_load: requests={} matrices={} fanin={} depth={} trials={} seed={} skew={}\n",
        opts.requests, opts.matrices, opts.fanin, opts.depth, opts.trials, opts.seed, opts.skew
    ));
    for (i, spec) in specs(opts.matrices).iter().enumerate() {
        let csr: Csr<f64> = spec.build(opts.seed ^ i as u64);
        let prepared = PreparedMatrix::prepare(&csr, Model::Overlap, &machine, &profile, true);
        let id = MatrixId(i as u64 + 1);
        header.push_str(&format!(
            "  {id}: {:?} -> {} ({} rows, {} nnz)\n",
            spec,
            prepared.config(),
            csr.n_rows(),
            csr.nnz_stored()
        ));
        let mut rng = Rng::new(opts.seed ^ (0xC0FFEE + i as u64));
        let xs: Vec<Vec<f64>> = (0..XS_PER_MATRIX)
            .map(|_| rng.f64_vec(csr.n_cols(), -1.0, 1.0))
            .collect();
        // The bitwise reference is the *prepared* matrix's single-vector
        // path: the SpMM kernels are bitwise per-column equal to it (see
        // tests/differential_equivalence.rs), so coalescing must not
        // change a single bit.
        let refs = xs.iter().map(|x| prepared.spmv(x)).collect();
        registry.publish(id, prepared);
        workloads.push(Workload { id, xs, refs });
    }
    let workloads = Arc::new(workloads);
    print!("{header}");

    // Best-of-trials per mode, like the timing module's min-of-runs, and
    // *interleaved* (1, 8, 1, 8, …) so slow drift in the box's load hits
    // both policies alike: on a loaded (or single-core) machine a stray
    // scheduler stall would otherwise masquerade as a policy difference.
    let mut un_trials = Vec::new();
    let mut co_trials = Vec::new();
    for _ in 0..opts.trials {
        un_trials.push(run_traffic(&registry, &workloads, &opts, 1));
        co_trials.push(run_traffic(&registry, &workloads, &opts, 8));
    }
    let best = |v: Vec<RunOutcome>| {
        v.into_iter()
            .min_by_key(|o| o.elapsed)
            .expect("trials >= 1")
    };
    let uncoalesced = best(un_trials);
    let coalesced = best(co_trials);

    let mut body = String::new();
    describe(
        "uncoalesced (max_batch=1)",
        &uncoalesced,
        opts.requests,
        &mut body,
    );
    describe(
        "coalesced   (max_batch=8)",
        &coalesced,
        opts.requests,
        &mut body,
    );
    let gain = uncoalesced.elapsed.as_secs_f64() / coalesced.elapsed.as_secs_f64();
    body.push_str(&format!(
        "coalescing gain: {gain:.2}x throughput at fan-in {}\n",
        opts.fanin
    ));
    print!("{body}");

    let text = format!("{header}{body}");
    if let Some(dir) = std::path::Path::new(&opts.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&opts.out, &text) {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);
}
