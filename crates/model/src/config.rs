//! The (format, block, implementation) configuration space the models
//! search.

use core::fmt;
use spmv_core::{Csr, Index, MatrixShape, Scalar, SpMv, SpMvMulti};
use spmv_formats::stats::{self, BlockCounts, FormatStats, LaneCounts};
use spmv_formats::{
    sell_sigmas, Bcsd, BcsdDec, Bcsr, BcsrDec, FormatKind, SellCSigma, SELL_SIGMA_FULL,
};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::{BlockShape, KernelImpl, BCSD_SIZES, MAX_BLOCK_ELEMS, SELL_HEIGHTS};
use spmv_parallel::{bcsd_unit_weights, bcsr_unit_weights, csr_unit_weights, sell_unit_weights};
use spmv_telemetry::residual::ResidualKey;

use crate::Model;

/// A storage format plus its block parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlockConfig {
    /// Plain CSR (the models' degenerate 1×1 blocking).
    Csr,
    /// BCSR with the given shape.
    Bcsr(BlockShape),
    /// BCSR-DEC with the given shape.
    BcsrDec(BlockShape),
    /// BCSD with the given diagonal size.
    Bcsd(usize),
    /// BCSD-DEC with the given diagonal size.
    BcsdDec(usize),
    /// SELL-C-σ: slice height `c`, sorting window `sigma`
    /// ([`SELL_SIGMA_FULL`] for the global sort; padding-dominated
    /// extension).
    SellCSigma {
        /// Slice height (rows per slice; one of
        /// [`spmv_kernels::SELL_HEIGHTS`]).
        c: usize,
        /// Sorting window in rows.
        sigma: usize,
    },
}

impl BlockConfig {
    /// The format family this configuration belongs to.
    pub fn kind(self) -> FormatKind {
        match self {
            BlockConfig::Csr => FormatKind::Csr,
            BlockConfig::Bcsr(_) => FormatKind::Bcsr,
            BlockConfig::BcsrDec(_) => FormatKind::BcsrDec,
            BlockConfig::Bcsd(_) => FormatKind::Bcsd,
            BlockConfig::BcsdDec(_) => FormatKind::BcsdDec,
            BlockConfig::SellCSigma { .. } => FormatKind::SellCSigma,
        }
    }

    /// The block-parameter label: `-` for CSR, `RxC` for the BCSR
    /// family, `bN` for BCSD sizes and `cCsS` for SELL (`cCsn` for the
    /// global sort).
    pub fn shape_label(self) -> String {
        match self {
            BlockConfig::Csr => "-".to_string(),
            BlockConfig::Bcsr(s) | BlockConfig::BcsrDec(s) => format!("{}x{}", s.r, s.c),
            BlockConfig::Bcsd(b) | BlockConfig::BcsdDec(b) => format!("b{b}"),
            BlockConfig::SellCSigma { c, sigma } => format!("c{c}s{}", SigmaLabel(sigma)),
        }
    }
}

/// One point of the search space: block configuration plus kernel
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    /// Format and block parameter.
    pub block: BlockConfig,
    /// Scalar or SIMD kernels (always scalar for CSR).
    pub imp: KernelImpl,
}

impl Config {
    /// Plain CSR with the baseline kernel.
    pub const CSR: Config = Config {
        block: BlockConfig::Csr,
        imp: KernelImpl::Scalar,
    };

    /// Enumerates the search space (§V-A): CSR, plus every BCSR/BCSR-DEC
    /// shape with `r*c <= 8`, plus every BCSD/BCSD-DEC size in `2..=8` —
    /// each in scalar and (when `include_simd`) SIMD form.
    pub fn enumerate(include_simd: bool) -> Vec<Config> {
        let imps: &[KernelImpl] = if include_simd {
            &[KernelImpl::Scalar, KernelImpl::Simd]
        } else {
            &[KernelImpl::Scalar]
        };
        let mut out = vec![Config::CSR];
        for shape in BlockShape::search_space() {
            for &imp in imps {
                out.push(Config {
                    block: BlockConfig::Bcsr(shape),
                    imp,
                });
                out.push(Config {
                    block: BlockConfig::BcsrDec(shape),
                    imp,
                });
            }
        }
        for b in BCSD_SIZES {
            for &imp in imps {
                out.push(Config {
                    block: BlockConfig::Bcsd(b),
                    imp,
                });
                out.push(Config {
                    block: BlockConfig::BcsdDec(b),
                    imp,
                });
            }
        }
        out
    }

    /// Enumerates the *extended* search space: everything in
    /// [`Config::enumerate`] plus every SELL-C-σ slice height and window.
    /// Kept separate from the paper's base space so the original
    /// experiments are unchanged.
    pub fn enumerate_extended(include_simd: bool) -> Vec<Config> {
        let imps: &[KernelImpl] = if include_simd {
            &[KernelImpl::Scalar, KernelImpl::Simd]
        } else {
            &[KernelImpl::Scalar]
        };
        let mut out = Config::enumerate(include_simd);
        // SELL-C-σ variants, appended last: every slice height crossed
        // with the σ window set.
        for c in SELL_HEIGHTS {
            for sigma in sell_sigmas(c) {
                for &imp in imps {
                    out.push(Config {
                        block: BlockConfig::SellCSigma { c, sigma },
                        imp,
                    });
                }
            }
        }
        out
    }

    /// The profiling key of the blocked (main) submatrix's kernel.
    pub fn kernel_key(&self) -> KernelKey {
        match self.block {
            BlockConfig::Csr => KernelKey::Csr,
            BlockConfig::Bcsr(shape) | BlockConfig::BcsrDec(shape) => KernelKey::Bcsr {
                shape,
                imp: self.imp,
            },
            BlockConfig::Bcsd(b) | BlockConfig::BcsdDec(b) => KernelKey::Bcsd {
                b: b as u8,
                imp: self.imp,
            },
            // σ only shuffles rows between slices; the per-slice-column
            // work is fixed by the slice height, so every σ shares one
            // profiled kernel per height.
            BlockConfig::SellCSigma { c, .. } => KernelKey::Sell {
                c: c as u8,
                imp: self.imp,
            },
        }
    }

    /// Materializes the configuration for `csr`.
    pub fn build<T: SimdScalar>(&self, csr: &Csr<T>) -> BuiltFormat<T> {
        match self.block {
            BlockConfig::Csr => BuiltFormat::Csr(csr.clone()),
            BlockConfig::Bcsr(shape) => BuiltFormat::Bcsr(Bcsr::from_csr(csr, shape, self.imp)),
            BlockConfig::BcsrDec(shape) => {
                BuiltFormat::BcsrDec(BcsrDec::from_csr(csr, shape, self.imp))
            }
            BlockConfig::Bcsd(b) => BuiltFormat::Bcsd(Bcsd::from_csr(csr, b, self.imp)),
            BlockConfig::BcsdDec(b) => BuiltFormat::BcsdDec(BcsdDec::from_csr(csr, b, self.imp)),
            BlockConfig::SellCSigma { c, sigma } => {
                BuiltFormat::SellCSigma(SellCSigma::from_csr(csr, c, sigma, self.imp))
            }
        }
    }

    /// Computes the per-submatrix statistics the models need, without
    /// materializing the format. The returned byte totals are exact — the
    /// test suite checks them against [`Config::build`].
    ///
    /// This runs the configuration's structural pass from scratch (for a
    /// BCSR or BCSD configuration, the lane pass that also counts every
    /// other height of its block width, or every other BCSD size); to
    /// compute the statistics of many configurations of one matrix, keep
    /// an [`ArenaStats`] so configurations sharing a pass share it.
    pub fn substats<T: Scalar>(&self, csr: &Csr<T>) -> Vec<SubStat> {
        ArenaStats::new(csr).substats(*self)
    }

    /// How a pool partitions `csr` for this configuration: one weight per
    /// unit of rows, and the unit height (§V-A: every thread gets the
    /// same number of stored elements, padding included).
    ///
    /// Units are one block row (BCSR, BCSR-DEC), one segment (BCSD,
    /// BCSD-DEC) or one slice (SELL) tall, so every strip converts to
    /// exactly the blocks the whole-matrix conversion would and the
    /// pooled product is bitwise the serial one. The padded formats
    /// weigh their padded blocks, the decomposed ones and CSR their
    /// nonzeros.
    ///
    /// ```
    /// use spmv_gen::GenSpec;
    /// use spmv_model::{BlockConfig, Config};
    /// use spmv_kernels::{BlockShape, KernelImpl};
    ///
    /// let csr = GenSpec::Stencil2d { nx: 5, ny: 5 }.build(0);
    /// let block = BlockConfig::BcsrDec(BlockShape::new(3, 2).unwrap());
    /// let (weights, height) = Config { block, imp: KernelImpl::Scalar }.pool_units(&csr);
    /// assert_eq!((weights.len(), height), (9, 3)); // 25 rows in units of 3
    /// assert_eq!(weights.iter().sum::<u64>(), csr.nnz() as u64);
    /// ```
    pub fn pool_units<T: Scalar>(&self, csr: &Csr<T>) -> (Vec<u64>, usize) {
        let nnz_per = |height: usize| -> Vec<u64> {
            csr_unit_weights(csr)
                .chunks(height)
                .map(|rows| rows.iter().sum())
                .collect()
        };
        match self.block {
            BlockConfig::Csr => (csr_unit_weights(csr), 1),
            BlockConfig::Bcsr(shape) => (bcsr_unit_weights(csr, shape), shape.rows()),
            BlockConfig::BcsrDec(shape) => (nnz_per(shape.rows()), shape.rows()),
            BlockConfig::Bcsd(b) => (bcsd_unit_weights(csr, b), b),
            BlockConfig::BcsdDec(b) => (nnz_per(b), b),
            BlockConfig::SellCSigma { c, .. } => (sell_unit_weights(csr, c), c),
        }
    }
}

/// The canonical residual-tracker key of one (configuration, model)
/// prediction population. Serving, the tuner and the `modeleval`
/// harness all key by it, so serving-time residuals and offline
/// evaluation rows land in comparable buckets.
pub fn residual_key_for(config: Config, model: Model) -> ResidualKey {
    ResidualKey {
        format: config.block.kind().label().to_string(),
        shape: config.block.shape_label(),
        kernel: match config.imp {
            KernelImpl::Scalar => "scalar".to_string(),
            KernelImpl::Simd => "simd".to_string(),
        },
        model: model.label().to_string(),
    }
}

/// Per-matrix memo of the structural passes behind [`Config::substats`].
///
/// A configuration's statistics depend on its block geometry, not on its
/// kernel implementation or decomposition, and one pass counts many
/// geometries at once. An `ArenaStats` runs each structural pass the
/// first time a configuration needs it and keeps the result for every
/// other configuration it covers: one lane pass per BCSR block width up
/// to 4 ([`stats::bcsr_lane_counts`], every block height of that width),
/// one run pass for the one-row widths 5 to 8
/// ([`stats::bcsr_run_counts`]), one pass over the diagonals
/// ([`stats::bcsd_lane_counts`], every BCSD size) and one row-length sort
/// per effective SELL window. Ranking the 129-configuration extended
/// space then costs six block passes and at most six sorts instead of a
/// pass per configuration. The statistics are the same bit for bit as a
/// fresh pass's, whatever order the configurations are asked in.
///
/// Each pass runs inside a span named after what it fills:
/// `model.stats.bcsr` (argument: block width), `model.stats.runs`,
/// `model.stats.bcsd` and `model.stats.sell` (argument: sorting window).
///
/// [`rank`](crate::rank) and [`rank_multi`](crate::rank_multi) fill one
/// per call; a caller ranking several models over one matrix can keep
/// one across them.
///
/// ```
/// use spmv_gen::GenSpec;
/// use spmv_model::{ArenaStats, Config};
///
/// let csr = GenSpec::Stencil2d { nx: 12, ny: 12 }.build(0);
/// let mut arena = ArenaStats::new(&csr);
/// for config in Config::enumerate_extended(true) {
///     assert_eq!(arena.substats(config), config.substats(&csr));
/// }
/// ```
#[derive(Debug)]
pub struct ArenaStats<'a, T> {
    csr: &'a Csr<T>,
    /// The counts of each BCSR block width, `bcsr[c - 1]`.
    bcsr: [Option<LaneCounts>; MAX_BLOCK_ELEMS],
    bcsd: Option<LaneCounts>,
    sell: Vec<(usize, Vec<usize>)>,
}

impl<'a, T: Scalar> ArenaStats<'a, T> {
    /// An empty memo for `csr`; passes run on first use.
    pub fn new(csr: &'a Csr<T>) -> Self {
        ArenaStats {
            csr,
            bcsr: [None; MAX_BLOCK_ELEMS],
            bcsd: None,
            sell: Vec::new(),
        }
    }

    /// The matrix the statistics describe.
    pub fn csr(&self) -> &'a Csr<T> {
        self.csr
    }

    /// The per-submatrix statistics of `config` — what
    /// [`Config::substats`] returns — reusing any pass an earlier call
    /// already ran.
    pub fn substats(&mut self, config: Config) -> Vec<SubStat> {
        let csr = self.csr;
        let (n_rows, nnz) = (csr.n_rows(), csr.nnz());
        let idx = core::mem::size_of::<Index>();
        let vecs = (n_rows + csr.n_cols()) * T::BYTES;
        let key = config.kernel_key();
        // One submatrix pass streams its arrays plus one `x` and one `y`.
        let sub = |arrays: usize, nb: usize, key: KernelKey| SubStat {
            ws_bytes: arrays + vecs,
            vec_bytes: vecs,
            nb,
            key,
        };
        let csr_part = |nnz: usize| {
            sub(
                nnz * (T::BYTES + idx) + (n_rows + 1) * idx,
                nnz,
                KernelKey::Csr,
            )
        };
        // Values, a column index per block and the block-row pointer.
        let main_bytes =
            |st: FormatStats| st.stored * T::BYTES + st.nb * idx + (st.index_rows + 1) * idx;
        let padded = |counts: BlockCounts, elems: usize| {
            let st = counts.padded::<T>(elems, nnz);
            vec![sub(main_bytes(st), st.nb, key)]
        };
        let decomposed = |counts: BlockCounts, elems: usize| {
            let st = counts.decomposed(elems, nnz);
            vec![sub(main_bytes(st), st.nb, key), csr_part(st.rest_nnz)]
        };
        match config.block {
            BlockConfig::Csr => vec![csr_part(nnz)],
            BlockConfig::Bcsr(shape) => padded(self.bcsr_counts(shape), shape.elems()),
            BlockConfig::BcsrDec(shape) => decomposed(self.bcsr_counts(shape), shape.elems()),
            BlockConfig::Bcsd(b) => padded(self.bcsd_counts(b), b),
            BlockConfig::BcsdDec(b) => decomposed(self.bcsd_counts(b), b),
            // SELL charges the padded value stream, one column index per
            // stored slot, the slice pointer and per-lane length arrays,
            // and the row permutation.
            BlockConfig::SellCSigma { c, sigma } => {
                let st = stats::sellc_stats_sorted::<T>(self.sell_lengths(sigma), c);
                let arrays = st.stored * T::BYTES
                    + st.stored * idx
                    + (st.index_rows + 1) * idx
                    + st.index_rows * c * idx
                    + n_rows * idx;
                vec![sub(arrays, st.nb, key)]
            }
        }
    }

    fn bcsr_counts(&mut self, shape: BlockShape) -> BlockCounts {
        let (csr, c) = (self.csr, shape.cols());
        if self.bcsr[c - 1].is_none() {
            if stats::RUN_WIDTHS.contains(&c) {
                let _span = spmv_telemetry::span("model.stats.runs");
                for (w, counts) in stats::RUN_WIDTHS.zip(stats::bcsr_run_counts(csr)) {
                    self.bcsr[w - 1] = Some(counts);
                }
            } else {
                let _span = spmv_telemetry::span_with("model.stats.bcsr", c as u64);
                self.bcsr[c - 1] = Some(stats::bcsr_lane_counts(csr, c));
            }
        }
        self.bcsr[c - 1]
            .expect("the pass for this width ran")
            .height(shape.rows())
    }

    fn bcsd_counts(&mut self, b: usize) -> BlockCounts {
        let csr = self.csr;
        self.bcsd
            .get_or_insert_with(|| {
                let _span = spmv_telemetry::span("model.stats.bcsd");
                stats::bcsd_lane_counts(csr)
            })
            .height(b)
    }

    /// σ-sorted row lengths. Every window of at least `n_rows` rows is
    /// one global sort, so those σ share an entry.
    fn sell_lengths(&mut self, sigma: usize) -> &[usize] {
        let csr = self.csr;
        let window = sigma.min(csr.n_rows().max(1));
        memo(&mut self.sell, window, || {
            let _span = spmv_telemetry::span_with("model.stats.sell", window as u64);
            stats::sell_sorted_lengths(csr, sigma)
        })
        .as_slice()
    }
}

/// The value cached under `key`, computed by `f` on first use.
fn memo<K: PartialEq, V>(cache: &mut Vec<(K, V)>, key: K, f: impl FnOnce() -> V) -> &V {
    let pos = match cache.iter().position(|(k, _)| *k == key) {
        Some(pos) => pos,
        None => {
            cache.push((key, f()));
            cache.len() - 1
        }
    };
    &cache[pos].1
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.block {
            BlockConfig::Csr => write!(f, "CSR")?,
            BlockConfig::Bcsr(s) => write!(f, "BCSR {s}")?,
            BlockConfig::BcsrDec(s) => write!(f, "BCSR-DEC {s}")?,
            BlockConfig::Bcsd(b) => write!(f, "BCSD b={b}")?,
            BlockConfig::BcsdDec(b) => write!(f, "BCSD-DEC b={b}")?,
            BlockConfig::SellCSigma { c, sigma } => write!(f, "SELL {c}/{}", SigmaLabel(sigma))?,
        }
        if self.imp == KernelImpl::Simd {
            write!(f, " simd")?;
        }
        Ok(())
    }
}

/// Renders a σ value, spelling the [`SELL_SIGMA_FULL`] sentinel as `n`.
struct SigmaLabel(usize);

impl fmt::Display for SigmaLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == SELL_SIGMA_FULL {
            f.write_str("n")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// Per-submatrix model inputs: working set, block count, kernel identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubStat {
    /// Working set of this submatrix's SpMV pass (arrays + vectors).
    pub ws_bytes: usize,
    /// The vector portion of [`ws_bytes`](Self::ws_bytes): `x` plus `y`
    /// bytes for a single right-hand side. A `k`-vector call streams the
    /// matrix arrays (`ws_bytes - vec_bytes`) once but this much vector
    /// traffic `k` times — the split [`crate::Model::predict_multi`]
    /// needs.
    pub vec_bytes: usize,
    /// Number of blocks (`nnz` for CSR submatrices).
    pub nb: usize,
    /// Which profiled kernel executes this submatrix.
    pub key: KernelKey,
}

/// Identity of a profiled kernel: what `t_b` and `nof` are keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKey {
    /// The CSR row kernel (1×1 degenerate block).
    Csr,
    /// A BCSR block-row kernel.
    Bcsr {
        /// Block shape.
        shape: BlockShape,
        /// Kernel implementation.
        imp: KernelImpl,
    },
    /// A BCSD segment kernel.
    Bcsd {
        /// Diagonal block size.
        b: u8,
        /// Kernel implementation.
        imp: KernelImpl,
    },
    /// A SELL-C-σ slice kernel (σ does not change the kernel, only the
    /// slice widths it runs over).
    Sell {
        /// Slice height.
        c: u8,
        /// Kernel implementation.
        imp: KernelImpl,
    },
}

impl KernelKey {
    /// Elements processed per block by this kernel (1 for the CSR
    /// degenerate case).
    pub fn block_elems(self) -> usize {
        match self {
            KernelKey::Csr => 1,
            KernelKey::Bcsr { shape, .. } => shape.elems(),
            KernelKey::Bcsd { b, .. } => b as usize,
            KernelKey::Sell { c, .. } => c as usize,
        }
    }
}

impl fmt::Display for KernelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelKey::Csr => write!(f, "csr"),
            KernelKey::Bcsr { shape, imp } => write!(f, "bcsr-{shape}{}", imp.suffix()),
            KernelKey::Bcsd { b, imp } => write!(f, "bcsd-{b}{}", imp.suffix()),
            KernelKey::Sell { c, imp } => write!(f, "sell-{c}{}", imp.suffix()),
        }
    }
}

/// A materialized configuration; delegates [`SpMv`] to the concrete
/// format without boxing.
#[derive(Debug, Clone)]
pub enum BuiltFormat<T> {
    /// CSR.
    Csr(Csr<T>),
    /// BCSR.
    Bcsr(Bcsr<T>),
    /// BCSR-DEC.
    BcsrDec(BcsrDec<T>),
    /// BCSD.
    Bcsd(Bcsd<T>),
    /// BCSD-DEC.
    BcsdDec(BcsdDec<T>),
    /// SELL-C-σ.
    SellCSigma(SellCSigma<T>),
}

macro_rules! delegate {
    ($self:expr, $m:ident ( $($arg:expr),* )) => {
        match $self {
            BuiltFormat::Csr(x) => x.$m($($arg),*),
            BuiltFormat::Bcsr(x) => x.$m($($arg),*),
            BuiltFormat::BcsrDec(x) => x.$m($($arg),*),
            BuiltFormat::Bcsd(x) => x.$m($($arg),*),
            BuiltFormat::BcsdDec(x) => x.$m($($arg),*),
            BuiltFormat::SellCSigma(x) => x.$m($($arg),*),
        }
    };
}

impl<T: SimdScalar> MatrixShape for BuiltFormat<T> {
    fn n_rows(&self) -> usize {
        delegate!(self, n_rows())
    }
    fn n_cols(&self) -> usize {
        delegate!(self, n_cols())
    }
}

impl<T: SimdScalar> SpMv<T> for BuiltFormat<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        delegate!(self, spmv_into(x, y))
    }
    fn nnz_stored(&self) -> usize {
        delegate!(self, nnz_stored())
    }
    fn matrix_bytes(&self) -> usize {
        delegate!(self, matrix_bytes())
    }
    fn working_set_bytes(&self) -> usize {
        delegate!(self, working_set_bytes())
    }
}

impl<T: SimdScalar> SpMvMulti<T> for BuiltFormat<T> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        delegate!(self, spmv_multi_into(x, y, k))
    }
    fn working_set_bytes_multi(&self, k: usize) -> usize {
        delegate!(self, working_set_bytes_multi(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    fn fixture() -> Csr<f64> {
        let mut coo = Coo::new(29, 31);
        let mut state = 77u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..29 {
            if i < 31 {
                let _ = coo.push(i, i, 2.0);
            }
            for _ in 0..3 {
                let j = (next() as usize) % 31;
                let _ = coo.push(i, j, 1.0);
                if j + 1 < 31 && next() % 2 == 0 {
                    let _ = coo.push(i, j + 1, 1.0);
                }
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn enumerate_counts() {
        // Derived, not hardcoded: CSR + per implementation a BCSR and a
        // BCSR-DEC config per shape, plus a BCSD and a BCSD-DEC config
        // per diagonal size.
        let shapes = BlockShape::search_space().len();
        let sizes = BCSD_SIZES.len();
        assert_eq!(Config::enumerate(false).len(), 1 + 2 * (shapes + sizes));
        assert_eq!(Config::enumerate(true).len(), 1 + 4 * (shapes + sizes));
    }

    #[test]
    fn enumerate_extended_counts() {
        // Per implementation the extension adds one SELL config per
        // (height, σ) pair to the base space's BCSR/BCSR-DEC config per
        // shape and BCSD/BCSD-DEC config per size.
        let shapes = BlockShape::search_space().len();
        let sizes = BCSD_SIZES.len();
        let sell: usize = SELL_HEIGHTS.iter().map(|&c| sell_sigmas(c).len()).sum();
        let per_imp = 2 * (shapes + sizes) + sell;
        assert_eq!(Config::enumerate_extended(false).len(), 1 + per_imp);
        assert_eq!(Config::enumerate_extended(true).len(), 1 + 2 * per_imp);
        // The counts the docs quote.
        assert_eq!((1 + per_imp, 1 + 2 * per_imp), (65, 129));
    }

    #[test]
    fn extended_space_contains_base_space_as_prefix() {
        let base = Config::enumerate(true);
        let ext = Config::enumerate_extended(true);
        assert_eq!(&ext[..base.len()], &base[..]);
    }

    #[test]
    fn arena_runs_one_pass_per_geometry_in_any_order() {
        let csr = fixture();
        let configs = Config::enumerate_extended(true);
        let fresh: Vec<Vec<SubStat>> = configs.iter().map(|c| c.substats(&csr)).collect();
        let mut arena = ArenaStats::new(&csr);
        for (config, want) in configs.iter().zip(&fresh).rev() {
            assert_eq!(&arena.substats(*config), want, "{config}");
        }
        // Every block width counted (widths 5 to 8 by one run pass) and
        // one pass over the diagonals.
        assert!(arena.bcsr.iter().all(Option::is_some));
        assert!(arena.bcsd.is_some());
        // σ ∈ {1, 2, 4, 8, 64, n} on 29 rows: 64 and n are both the
        // global sort.
        let mut windows: Vec<usize> = arena.sell.iter().map(|(w, _)| *w).collect();
        windows.sort_unstable();
        assert_eq!(windows, [1, 2, 4, 8, 29]);
        // A second round is served from the memo alone.
        for (config, want) in configs.iter().zip(&fresh) {
            assert_eq!(&arena.substats(*config), want, "{config}");
        }
        assert_eq!(arena.sell.len(), 5);
    }

    #[test]
    fn substats_of_a_repeated_column_do_not_underflow() {
        // Unchecked input may repeat a column: row 0 holds columns
        // [0, 0, 1], so a 1x2 block row stores fewer values than it has
        // nonzeros.
        let csr = Csr::from_raw_unchecked(2, 4, vec![0, 3, 5], vec![0, 0, 1, 2, 3], vec![1.0; 5])
            .unwrap();
        for config in Config::enumerate_extended(true) {
            for sub in config.substats(&csr) {
                assert!(sub.ws_bytes > 0, "{config}");
            }
        }
    }

    #[test]
    fn built_formats_all_multiply_correctly() {
        let csr = fixture();
        let x: Vec<f64> = (0..31).map(|i| 1.0 + (i % 3) as f64).collect();
        let want = csr.spmv(&x);
        for config in Config::enumerate_extended(true) {
            let built = config.build(&csr);
            let got = built.spmv(&x);
            for (a, g) in want.iter().zip(&got) {
                assert!((a - g).abs() < 1e-9, "{config}");
            }
        }
    }

    #[test]
    fn built_formats_all_multiply_multi_correctly() {
        let csr = fixture();
        let k = 3;
        let x: Vec<f64> = (0..31 * k).map(|i| 1.0 + (i % 5) as f64).collect();
        for config in Config::enumerate_extended(true) {
            let built = config.build(&csr);
            let got = built.spmv_multi(&x, k);
            for t in 0..k {
                let want = built.spmv(&x[t * 31..(t + 1) * 31]);
                assert_eq!(want, &got[t * 29..(t + 1) * 29], "{config} col {t}");
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let configs = Config::enumerate_extended(true);
        let mut labels: Vec<String> = configs.iter().map(|c| c.to_string()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), configs.len());
    }

    #[test]
    fn sell_substats_shrink_with_the_sorting_window() {
        let csr = fixture();
        let imp = KernelImpl::Scalar;
        for c in SELL_HEIGHTS {
            let ws = |block: BlockConfig| Config { block, imp }.substats(&csr)[0].ws_bytes;
            let unsorted = ws(BlockConfig::SellCSigma { c, sigma: 1 });
            // The global sort can only shrink the padded working set.
            let sorted = ws(BlockConfig::SellCSigma {
                c,
                sigma: SELL_SIGMA_FULL,
            });
            assert!(sorted <= unsorted, "c={c}");
        }
    }

    #[test]
    fn pool_units_align_to_blocks_and_weigh_stored_elements() {
        let csr = fixture();
        let nnz = csr.nnz() as u64;
        for config in Config::enumerate_extended(true) {
            let (weights, height) = config.pool_units(&csr);
            let want_height = match config.block {
                BlockConfig::Csr => 1,
                BlockConfig::Bcsr(s) | BlockConfig::BcsrDec(s) => s.rows(),
                BlockConfig::Bcsd(b) | BlockConfig::BcsdDec(b) => b,
                BlockConfig::SellCSigma { c, .. } => c,
            };
            assert_eq!(height, want_height, "{config}");
            assert_eq!(weights.len(), 29usize.div_ceil(height), "{config}");
            let total: u64 = weights.iter().sum();
            match config.block {
                BlockConfig::Csr | BlockConfig::BcsrDec(_) | BlockConfig::BcsdDec(_) => {
                    assert_eq!(total, nnz, "{config}")
                }
                _ => assert!(total >= nnz, "{config}: padded weights below nnz"),
            }
        }
    }

    #[test]
    fn decomposed_substats_have_two_parts() {
        let csr = fixture();
        let c = Config {
            block: BlockConfig::BcsrDec(BlockShape::new(2, 2).unwrap()),
            imp: KernelImpl::Scalar,
        };
        let stats = c.substats(&csr);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[1].key, KernelKey::Csr);
    }
}
