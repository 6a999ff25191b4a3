//! Measurement sweeps over the configuration space.
//!
//! The experiments of §V measure the real execution time of every
//! (format, block, implementation) candidate on every suite matrix. This
//! module owns that machinery: the extended configuration type (the
//! models exclude 1D-VBL, the measured evaluation includes it), the
//! per-matrix sweep, and the derived quantities the tables report
//! (winners per configuration column, speedups over CSR).

use spmv_core::{Csr, MatrixShape, Precision};
use spmv_formats::{FormatKind, Vbl};
use spmv_gen::random_vector;
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::KernelImpl;
use spmv_model::timing::measure_spmv;
use spmv_model::Config;

/// Shared experiment options (see `--help` of any harness binary).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpOpts {
    /// Suite size multiplier.
    pub scale: f64,
    /// Generator seed.
    pub seed: u64,
    /// Timing window per measurement, seconds.
    pub min_time: f64,
    /// Best-of batches per measurement.
    pub batches: usize,
    /// Restrict to these suite ids (1-based), if set.
    pub matrices: Option<Vec<usize>>,
    /// Override the model-calibration footprint in bytes (bandwidth
    /// triad + `nof` profiling matrix). `None` sizes it from the
    /// evaluated matrices, floored at 8 MiB.
    pub calib_bytes: Option<usize>,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            scale: 0.25,
            seed: 42,
            min_time: 2e-3,
            batches: 3,
            matrices: None,
            calib_bytes: None,
        }
    }
}

impl ExpOpts {
    /// Whether suite id `id` is selected.
    pub fn selects(&self, id: usize) -> bool {
        self.matrices.as_ref().is_none_or(|m| m.contains(&id))
    }
}

/// A measured configuration: the model space plus 1D-VBL.
///
/// The paper's measured evaluation covers all six formats, but its models
/// deliberately exclude variable-size blocking (§IV); this enum is the
/// measured superset of [`Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AnyConfig {
    /// A model-space configuration (CSR / BCSR / BCSR-DEC / BCSD /
    /// BCSD-DEC).
    Fixed(Config),
    /// 1D-VBL (the paper implements it with scalar kernels only).
    Vbl,
}

impl AnyConfig {
    /// The format family.
    pub fn kind(self) -> FormatKind {
        match self {
            AnyConfig::Fixed(c) => c.block.kind(),
            AnyConfig::Vbl => FormatKind::Vbl,
        }
    }

    /// The kernel implementation this configuration runs.
    pub fn imp(self) -> KernelImpl {
        match self {
            AnyConfig::Fixed(c) => c.imp,
            AnyConfig::Vbl => KernelImpl::Scalar,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> String {
        match self {
            AnyConfig::Fixed(c) => c.to_string(),
            AnyConfig::Vbl => "1D-VBL".to_string(),
        }
    }

    /// The full measured configuration space: every model-space
    /// configuration (scalar + SIMD) plus 1D-VBL.
    pub fn enumerate() -> Vec<AnyConfig> {
        let mut out: Vec<AnyConfig> = Config::enumerate(true)
            .into_iter()
            .map(AnyConfig::Fixed)
            .collect();
        out.push(AnyConfig::Vbl);
        out
    }

    /// Measures seconds per SpMV of this configuration on `csr`.
    pub fn measure<T: SimdScalar>(self, csr: &Csr<T>, opts: &ExpOpts) -> f64 {
        let x: Vec<T> = random_vector(csr.n_cols(), opts.seed);
        match self {
            AnyConfig::Fixed(c) => {
                let built = c.build(csr);
                measure_spmv(&built, &x, opts.min_time, opts.batches)
            }
            AnyConfig::Vbl => {
                let vbl = Vbl::from_csr(csr, KernelImpl::Scalar);
                measure_spmv(&vbl, &x, opts.min_time, opts.batches)
            }
        }
    }
}

/// All measured times for one matrix at one precision.
#[derive(Debug, Clone)]
pub struct MatrixSweep {
    /// `(configuration, seconds per SpMV)` for every measured config.
    pub entries: Vec<(AnyConfig, f64)>,
}

impl MatrixSweep {
    /// Measures the full configuration space on `csr`.
    pub fn run<T: SimdScalar>(csr: &Csr<T>, opts: &ExpOpts) -> Self {
        let entries = AnyConfig::enumerate()
            .into_iter()
            .map(|c| (c, c.measure(csr, opts)))
            .collect();
        MatrixSweep { entries }
    }

    /// CSR baseline time.
    pub fn csr_time(&self) -> f64 {
        self.entries
            .iter()
            .find(|(c, _)| *c == AnyConfig::Fixed(Config::CSR))
            .map(|&(_, t)| t)
            .expect("CSR is always measured")
    }

    /// The overall fastest configuration among `candidates`-filtered
    /// entries.
    pub fn best_where(&self, mut keep: impl FnMut(AnyConfig) -> bool) -> (AnyConfig, f64) {
        self.entries
            .iter()
            .filter(|(c, _)| keep(*c))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(c, t)| (c, t))
            .expect("filter selected no configurations")
    }

    /// The winner of one of Table II's configuration columns.
    ///
    /// A column allows CSR (always with its scalar kernel), the four
    /// fixed-size blocked formats with the column's implementation, and —
    /// in the non-SIMD columns only, as in the paper — 1D-VBL.
    pub fn column_winner(&self, simd: bool) -> (AnyConfig, f64) {
        self.best_where(|c| match c {
            AnyConfig::Fixed(cfg) if cfg.block == spmv_model::BlockConfig::Csr => true,
            AnyConfig::Fixed(cfg) => (cfg.imp == KernelImpl::Simd) == simd,
            AnyConfig::Vbl => !simd,
        })
    }

    /// Per-format best/worst/average speedup over CSR, restricted to the
    /// given implementation (Table III uses scalar double precision).
    pub fn speedups_over_csr(&self, kind: FormatKind, imp: KernelImpl) -> Option<SpeedupStats> {
        let csr = self.csr_time();
        let speedups: Vec<f64> = self
            .entries
            .iter()
            .filter(|(c, _)| c.kind() == kind && c.imp() == imp)
            .map(|(_, t)| csr / t)
            .collect();
        if speedups.is_empty() {
            return None;
        }
        Some(SpeedupStats {
            min: speedups.iter().copied().fold(f64::INFINITY, f64::min),
            avg: speedups.iter().sum::<f64>() / speedups.len() as f64,
            max: speedups.iter().copied().fold(0.0, f64::max),
        })
    }
}

/// Min / average / max speedup over CSR for one format on one matrix
/// (a Table III cell triple).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupStats {
    /// Worst block choice.
    pub min: f64,
    /// Average over block choices.
    pub avg: f64,
    /// Best block choice.
    pub max: f64,
}

/// Builds the suite matrix `entry` at both precisions from one `f64`
/// build.
pub fn build_both(entry: &spmv_gen::SuiteMatrix, seed: u64) -> (Csr<f64>, Csr<f32>) {
    let m64 = entry.build(seed);
    let m32 = m64.cast::<f32>();
    (m64, m32)
}

/// The paper's four single-threaded configuration columns (Table II
/// order): dp, dp-simd, sp, sp-simd.
pub const COLUMNS: [(Precision, bool); 4] = [
    (Precision::Double, false),
    (Precision::Double, true),
    (Precision::Single, false),
    (Precision::Single, true),
];

/// Label of a configuration column (`"dp-simd"` etc.).
pub fn column_label(precision: Precision, simd: bool) -> String {
    format!("{}{}", precision.label(), if simd { "-simd" } else { "" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_gen::GenSpec;

    fn quick_opts() -> ExpOpts {
        ExpOpts {
            scale: 0.02,
            seed: 1,
            min_time: 5e-5,
            batches: 1,
            matrices: None,
            calib_bytes: Some(1 << 16),
        }
    }

    #[test]
    fn enumerate_has_model_space_plus_vbl() {
        let all = AnyConfig::enumerate();
        assert_eq!(all.len(), Config::enumerate(true).len() + 1);
        assert!(all.contains(&AnyConfig::Vbl));
    }

    #[test]
    fn sweep_measures_everything_and_finds_csr() {
        let csr = GenSpec::Stencil2d { nx: 12, ny: 10 }.build(3);
        let sweep = MatrixSweep::run(&csr, &quick_opts());
        assert_eq!(sweep.entries.len(), AnyConfig::enumerate().len());
        assert!(sweep.csr_time() > 0.0);
        assert!(sweep.entries.iter().all(|&(_, t)| t > 0.0));
    }

    #[test]
    fn column_winner_respects_simd_rules() {
        let csr = GenSpec::FemBlocks {
            nodes: 24,
            dof: 3,
            neighbors: 4,
        }
        .build(5);
        let sweep = MatrixSweep::run(&csr, &quick_opts());
        let (w_scalar, _) = sweep.column_winner(false);
        let (w_simd, _) = sweep.column_winner(true);
        // Non-CSR winners in the simd column must be simd configs.
        if let AnyConfig::Fixed(c) = w_simd {
            if c.block != spmv_model::BlockConfig::Csr {
                assert_eq!(c.imp, KernelImpl::Simd);
            }
        }
        // VBL can never win the simd column.
        assert_ne!(w_simd, AnyConfig::Vbl);
        let _ = w_scalar;
    }

    #[test]
    fn speedups_cover_expected_formats() {
        let csr = GenSpec::Banded {
            n: 120,
            bandwidth: 6,
            fill: 0.7,
        }
        .build(2);
        let sweep = MatrixSweep::run(&csr, &quick_opts());
        for kind in FormatKind::EVALUATED {
            if kind == FormatKind::Csr {
                continue;
            }
            let st = sweep
                .speedups_over_csr(kind, KernelImpl::Scalar)
                .unwrap_or_else(|| panic!("{kind} missing"));
            assert!(st.min <= st.avg && st.avg <= st.max, "{kind}");
            assert!(st.min > 0.0);
        }
    }

    #[test]
    fn build_both_casts_structure() {
        let entries = spmv_gen::suite(0.02);
        let (m64, m32) = build_both(&entries[4], 7);
        assert_eq!(m64.nnz(), m32.nnz());
        assert_eq!(MatrixShape::n_rows(&m64), MatrixShape::n_rows(&m32));
    }

    #[test]
    fn column_labels() {
        assert_eq!(column_label(Precision::Double, false), "dp");
        assert_eq!(column_label(Precision::Single, true), "sp-simd");
    }
}
