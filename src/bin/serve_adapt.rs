//! `serve_adapt`: drift-injection harness for the adaptive reselection
//! loop.
//!
//! Publishes a model-selected matrix, serves verified traffic through a
//! [`ServeEngine`], and attaches a residual-driven [`Tuner`] — then
//! injects the two staleness scenarios the tuner exists for and records
//! the detection → reprofile → rerank → hot-swap → recovery timeline to
//! `results/adaptive.txt`:
//!
//! 1. **Structure drift** — the "publisher" republishes a structurally
//!    different matrix (FEM 3×3 blocks → scattered random sparsity)
//!    under the *old* blocked configuration with its stale timing
//!    baseline, the way a re-meshing solver would. The tuner must
//!    detect the residual blow-up, re-rank against the new structure,
//!    and swap in the better-ranked (different) configuration.
//! 2. **Bandwidth perturbation** — the engine's residual-scale seam
//!    makes every recorded measurement look 4× slower, as if a
//!    co-tenant ate the memory bus. Structure is unchanged, so the
//!    rerank confirms the incumbent — but republishes it with a freshly
//!    calibrated baseline, which re-centers the residuals and proves
//!    recovery.
//!
//! Every reply is verified bitwise against the single-vector SpMV of
//! *some published version* of the matrix before it counts — a torn
//! answer that mixes versions matches none of them and aborts the run.
//! Traffic is closed-loop and single-in-flight, so each dispatch is a
//! width-1 chunk whose timing is directly comparable to the calibrated
//! baselines.
//!
//! ```sh
//! serve_adapt                               # defaults, ~1 s
//! serve_adapt --seed 9 --out results/adaptive.txt
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use blocked_spmv::core::rng::Rng;
use blocked_spmv::core::{Csr, MatrixShape, SpMv};
use blocked_spmv::gen::GenSpec;
use blocked_spmv::model::{
    candidate_configs_extended, select_extended, KernelProfile, MachineProfile, Model,
};
use blocked_spmv::serve::{EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine};
use blocked_spmv::tune::{
    CannedSampler, DetectorConfig, SystemClock, TimelineKind, Tuner, WatchSpec,
};

/// Distinct canned input vectors (references precomputed per version).
const XS_PER_MATRIX: usize = 4;

struct Opts {
    nodes: usize,
    batch: usize,
    max_batches: usize,
    seed: u64,
    out: String,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        nodes: 2000,
        batch: 8,
        max_batches: 60,
        seed: 7,
        out: "results/adaptive.txt".to_string(),
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
            "--nodes" => opts.nodes = num("--nodes").max(100) as usize,
            "--batch" => opts.batch = num("--batch").max(1) as usize,
            "--max-batches" => opts.max_batches = num("--max-batches").max(1) as usize,
            "--seed" => opts.seed = num("--seed"),
            "--out" => {
                opts.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path argument");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!(
                    "usage: serve_adapt [--nodes N] [--batch B] [--max-batches K] \
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

/// Per-version bitwise references for the canned inputs.
struct RefSets {
    sets: Vec<(u64, Vec<Vec<f64>>)>,
}

impl RefSets {
    /// Records references for the currently published version, once.
    fn absorb(&mut self, registry: &Registry<f64>, id: MatrixId, xs: &[Vec<f64>]) {
        let (version, prepared) = registry
            .get_versioned(id)
            .expect("watched matrix must stay published");
        if self.sets.iter().any(|(v, _)| *v == version) {
            return;
        }
        let refs = xs.iter().map(|x| prepared.spmv(x)).collect();
        self.sets.push((version, refs));
    }

    /// The published version whose reference `y` matches bitwise, if any.
    fn verify(&self, xi: usize, y: &[f64]) -> Option<u64> {
        self.sets
            .iter()
            .rev()
            .find(|(_, refs)| refs[xi].as_slice() == y)
            .map(|(v, _)| *v)
    }
}

struct Harness {
    registry: Arc<Registry<f64>>,
    engine: Arc<ServeEngine<f64>>,
    tuner: Tuner<f64>,
    id: MatrixId,
    xs: Vec<Vec<f64>>,
    refsets: RefSets,
    verified_by_version: BTreeMap<u64, u64>,
    rng: Rng,
    log: String,
}

impl Harness {
    /// Serves one closed-loop batch of verified requests, then runs a
    /// tuner pass. Aborts the run on any reply that matches no
    /// published version bitwise.
    fn batch(&mut self, n: usize) {
        for _ in 0..n {
            let xi = self.rng.index(XS_PER_MATRIX);
            let y = self
                .engine
                .submit_wait(self.id, self.xs[xi].clone())
                .expect("closed-loop request must complete");
            let Some(version) = self.refsets.verify(xi, &y) else {
                eprintln!("FATAL: reply matches no published version bitwise");
                std::process::exit(1);
            };
            *self.verified_by_version.entry(version).or_insert(0) += 1;
        }
        self.tuner.run_once();
        // A pass may have published a new version; capture its refs
        // before the next batch's replies can land on it.
        self.refsets.absorb(&self.registry, self.id, &self.xs);
    }

    /// Serves batches until `pred` holds over the timeline (or the
    /// batch budget runs out, which aborts the run).
    fn batches_until(
        &mut self,
        what: &str,
        batch: usize,
        max_batches: usize,
        pred: impl Fn(&[TimelineKind]) -> bool,
    ) {
        for _ in 0..max_batches {
            self.batch(batch);
            let kinds: Vec<TimelineKind> =
                self.tuner.timeline().into_iter().map(|e| e.kind).collect();
            if pred(&kinds) {
                return;
            }
        }
        eprintln!(
            "FATAL: {what} did not happen within the batch budget\n\
             verdict = {:?}, windowed |rel err| = {:?}\ntimeline so far:",
            self.tuner.verdict_for(self.id),
            self.tuner.windowed_for(self.id),
        );
        for ev in self.tuner.timeline() {
            eprintln!("  {ev}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let opts = parse_opts();

    // Canned machine/kernel profile: selection is deterministic, and the
    // interesting measurements (dispatch timings, calibrations) are real.
    let machine = MachineProfile {
        bandwidth: 8e9,
        l1_bytes: 32 << 10,
        llc_bytes: 8 << 20,
    };
    let profile = KernelProfile::uniform(1e-9, 0.5);

    // Phase 0: publish a FEM-blocked matrix; the models pick a blocked
    // format for it, which is exactly what structure drift will betray.
    let fem: Csr<f64> = GenSpec::FemBlocks {
        nodes: opts.nodes,
        dof: 3,
        neighbors: 6,
    }
    .build(opts.seed);
    let n = fem.n_cols();
    // The incumbent is a padded configuration, whose cost explodes
    // under the scatter drift injected below: that is the residual
    // signal the tuner detects.
    let choice = select_extended(Model::Overlap, &fem, &machine, &profile, true);
    let initial_config = choice.config;
    let prepared = PreparedMatrix::from_config(initial_config, &fem)
        .with_selection(Model::Overlap, choice.predicted);

    let registry = Arc::new(Registry::new());
    let id = MatrixId(1);
    registry.publish(id, prepared);
    let engine = Arc::new(ServeEngine::new(
        Arc::clone(&registry),
        EngineOptions::default(),
    ));

    // The sampler is scripted with the stored profile's own numbers: the
    // reprofile seam is exercised (a `Reprofiled` event per stale
    // episode) without injecting ranking noise into the harness.
    let canned_kernels = {
        let mut rows: Vec<_> = candidate_configs_extended(Model::Overlap, true)
            .into_iter()
            .map(|c| (c.kernel_key(), profile.get(c.kernel_key())))
            .collect();
        rows.sort_by_key(|(k, _)| format!("{k:?}"));
        rows.dedup_by_key(|(k, _)| format!("{k:?}"));
        rows
    };
    let sampler = CannedSampler::new()
        .with_bandwidth(machine.bandwidth)
        .with_kernels(canned_kernels);

    let tuner = Tuner::new(
        Arc::clone(&registry),
        Some(Arc::clone(&engine)),
        Arc::new(SystemClock::new()),
        Box::new(sampler),
    );
    let spec = WatchSpec {
        detector: DetectorConfig {
            window: 8,
            enter: 0.45,
            exit: 0.25,
            consecutive: 3,
            cooldown: 8,
            min_samples: 4,
        },
        ..WatchSpec::new(
            Arc::new(fem.clone()),
            Model::Overlap,
            machine,
            profile.clone(),
        )
    };
    assert!(tuner.watch(id, spec), "matrix is published");

    let mut rng = Rng::new(opts.seed ^ 0xC0FFEE);
    let xs: Vec<Vec<f64>> = (0..XS_PER_MATRIX)
        .map(|_| rng.f64_vec(n, -1.0, 1.0))
        .collect();
    let mut h = Harness {
        registry: Arc::clone(&registry),
        engine: Arc::clone(&engine),
        tuner,
        id,
        xs,
        refsets: RefSets { sets: Vec::new() },
        verified_by_version: BTreeMap::new(),
        rng: Rng::new(opts.seed ^ 0xADAB7),
        log: String::new(),
    };
    h.refsets.absorb(&registry, id, &h.xs);
    h.log.push_str(&format!(
        "serve_adapt: nodes={} batch={} max_batches={} seed={}\n\
         matrix: {} x {}, {} nnz (FEM 3x3 blocks) -> {} (v1)\n",
        opts.nodes,
        opts.batch,
        opts.max_batches,
        opts.seed,
        fem.n_rows(),
        fem.n_cols(),
        fem.nnz(),
        initial_config,
    ));

    // Phase 1: warmup. Calibrated baselines center the residuals, so
    // steady traffic must not trigger anything.
    h.batch(2 * opts.batch);
    let swaps_at_warmup = h
        .tuner
        .timeline()
        .iter()
        .filter(|e| matches!(e.kind, TimelineKind::Swapped { .. }))
        .count();
    h.log.push_str(&format!(
        "phase warmup: {} verified requests, windowed |rel err| = {:.3}, swaps = {}\n",
        h.verified_by_version.values().sum::<u64>(),
        h.tuner.windowed_for(id).unwrap_or(f64::NAN),
        swaps_at_warmup,
    ));

    // Phase 2: structure drift. The "publisher" republishes a scattered
    // matrix of the same dimensions and mean row length under the OLD
    // blocked config with its stale timing baseline — then the residuals
    // must betray it. Blocking scattered entries stores several times
    // the FEM matrix's values, so the drifted version runs measurably
    // slower than the baseline; a sparser drift could run about as fast
    // as the FEM matrix and never leave the detector's healthy band.
    let drifted: Arc<Csr<f64>> = Arc::new(
        GenSpec::Random {
            n,
            m: n,
            nnz_per_row: fem.nnz() / n,
        }
        .build(opts.seed ^ 0xD81F7),
    );
    let stale_baseline = engine
        .calibrate(id, &h.xs[0], 3)
        .expect("calibrating the pre-drift version");
    let drift_version = registry.publish(id, PreparedMatrix::from_config(initial_config, &drifted));
    engine.expect(
        id,
        drift_version,
        blocked_spmv::serve::residual_key_for(initial_config, Model::Overlap),
        stale_baseline,
    );
    h.refsets.absorb(&registry, id, &h.xs);
    h.tuner.update_structure(id, Arc::clone(&drifted));
    h.log.push_str(&format!(
        "phase drift: republished {} nnz random matrix under {} (v{drift_version}, stale baseline {:.1} us)\n",
        drifted.nnz(),
        initial_config,
        stale_baseline * 1e6,
    ));

    h.batches_until("structure-drift swap", opts.batch, opts.max_batches, |k| {
        k.iter().any(|e| matches!(e, TimelineKind::Swapped { .. }))
    });
    let swapped_to = h
        .tuner
        .current_config(id)
        .expect("watched matrix has a current config");
    assert_ne!(
        swapped_to, initial_config,
        "drift must swap to a different configuration"
    );
    // "Better-ranked" is checkable directly: the tuner's pick is what
    // the model ranks first on the drifted structure.
    let best = select_extended(Model::Overlap, &drifted, &machine, &profile, true);
    assert_eq!(
        swapped_to, best.config,
        "swap target must be the model's first-ranked config on the new structure"
    );
    h.batches_until("post-swap recovery", opts.batch, opts.max_batches, |k| {
        let swap_at = k
            .iter()
            .rposition(|e| matches!(e, TimelineKind::Swapped { .. }))
            .unwrap_or(0);
        k[swap_at..]
            .iter()
            .any(|e| matches!(e, TimelineKind::Recovered { .. }))
    });
    let report_after_swap = engine.report();
    h.log.push_str(&format!(
        "phase drift: detected, reranked, SWAPPED {initial_config} -> {swapped_to}, recovered\n"
    ));

    // Phase 3: bandwidth perturbation. Every recorded measurement now
    // looks 4x slower; structure is unchanged, so the rerank confirms
    // the incumbent with a recalibrated (scaled) baseline, and the
    // residuals re-center.
    engine.set_residual_scale(4.0);
    let confirmed_since = h.tuner.timeline().len();
    h.batches_until(
        "bandwidth-perturbation republish",
        opts.batch,
        opts.max_batches,
        |k| {
            k[confirmed_since.min(k.len())..].iter().any(|e| {
                matches!(
                    e,
                    TimelineKind::Confirmed { .. } | TimelineKind::Swapped { .. }
                )
            })
        },
    );
    h.batches_until(
        "post-perturbation recovery",
        opts.batch,
        opts.max_batches,
        |k| {
            k[confirmed_since.min(k.len())..]
                .iter()
                .any(|e| matches!(e, TimelineKind::Recovered { .. }))
        },
    );
    h.log.push_str(
        "phase bandwidth: 4x residual scale detected, baseline recalibrated, recovered\n",
    );

    assert!(!h.tuner.panicked(), "tuner must not have panicked");

    // Report: verified traffic per version, latency separability, and
    // the full recovery timeline.
    let total: u64 = h.verified_by_version.values().sum();
    h.log.push_str(&format!(
        "verified replies: {total} total, by version {{{}}}\n",
        h.verified_by_version
            .iter()
            .map(|(v, c)| format!("v{v}:{c}"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    let whole = engine.report();
    let fmt_lat = |l: Option<blocked_spmv::serve::LatencySummary>| match l {
        Some(l) => format!(
            "p50={:.1} p95={:.1} p99={:.1} us",
            l.p50_ns as f64 / 1e3,
            l.p95_ns as f64 / 1e3,
            l.p99_ns as f64 / 1e3
        ),
        None => "n/a".to_string(),
    };
    h.log.push_str(&format!(
        "latency whole-run: {}\n\
         latency post-drift-swap window (at swap time): {}\n\
         latency current window (post-perturbation republish): {}\n",
        fmt_lat(whole.latency),
        fmt_lat(report_after_swap.window_latency),
        fmt_lat(whole.window_latency),
    ));
    h.log.push_str("timeline:\n");
    for ev in h.tuner.timeline() {
        h.log.push_str(&format!("  {ev}\n"));
    }

    print!("{}", h.log);
    if let Some(dir) = std::path::Path::new(&opts.out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&opts.out, &h.log) {
        eprintln!("cannot write {}: {e}", opts.out);
        std::process::exit(1);
    }
    println!("wrote {}", opts.out);
}
