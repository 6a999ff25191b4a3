//! Kernel profiling: per-block compute times `t_b` and non-overlap
//! factors `nof_b`.
//!
//! The MEMCOMP model's `t_b` is "obtained by profiling the execution of a
//! very small dense matrix, which is stored using every blocking method
//! and block under consideration and fits in the L1 cache of the target
//! machine" (§IV). The OVERLAP model's `nof_b` comes from equation (4),
//! profiling "a large dense matrix that exceeds the highest level of
//! cache". This module is that profiler; a [`KernelProfile`] is computed
//! once per (machine, precision) and reused across every matrix.

use crate::config::{Config, KernelKey};
use crate::machine::MachineProfile;
use crate::timing::measure_spmv;
use spmv_core::{Csr, DenseMatrix, MatrixShape, Scalar, SpMv};
use spmv_formats::{Bcsd, Bcsr, SellCSigma};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::KernelImpl;
use std::collections::HashMap;

/// Profiled characteristics of one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTimes {
    /// Estimated execution time for a single block, seconds (eq. 2).
    pub t_b: f64,
    /// Non-overlapping factor: the fraction of computation *not* hidden
    /// behind memory transfers (eq. 3–4), clamped to `[0, 1]`.
    pub nof: f64,
}

/// The complete kernel profile for one machine and precision.
#[derive(Debug, Clone, Default)]
pub struct KernelProfile {
    times: HashMap<KernelKey, BlockTimes>,
}

impl KernelProfile {
    /// Looks up a kernel's profile.
    ///
    /// # Panics
    ///
    /// Panics if the key was never profiled — profiles are built over the
    /// full search space, so this indicates a programming error.
    pub fn get(&self, key: KernelKey) -> BlockTimes {
        *self
            .times
            .get(&key)
            .unwrap_or_else(|| panic!("kernel {key} missing from profile"))
    }

    /// Inserts or replaces one kernel's numbers (used by tests and by
    /// synthetic profiles).
    pub fn set(&mut self, key: KernelKey, times: BlockTimes) {
        self.times.insert(key, times);
    }

    /// Number of profiled kernels.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterates over all profiled kernels.
    pub fn iter(&self) -> impl Iterator<Item = (&KernelKey, &BlockTimes)> {
        self.times.iter()
    }

    /// Profiles every search-space kernel this profile lacks —
    /// [`profile_keys`] over the missing keys — and returns how many it
    /// filled. A calibration saved before a kernel joined the search
    /// space, or cut short, then prices every candidate instead of
    /// panicking in [`KernelProfile::get`].
    pub fn fill_missing<T: SimdScalar>(
        &mut self,
        machine: &MachineProfile,
        opts: &ProfileOptions,
    ) -> usize {
        let missing: Vec<KernelKey> = search_space_keys()
            .into_iter()
            .filter(|key| !self.times.contains_key(key))
            .collect();
        for (key, times) in profile_keys::<T>(machine, opts, &missing) {
            self.set(key, times);
        }
        missing.len()
    }

    /// A synthetic profile where each block costs time proportional to
    /// its element count (`t_b = elems * per_elem`), with a uniform
    /// `nof`. This is the "ideal machine" profile: it isolates the
    /// models' structural reasoning (working sets, block counts, padding)
    /// from kernel-quality noise, and is what deterministic tests use.
    pub fn proportional(per_elem: f64, nof: f64) -> Self {
        let mut p = KernelProfile::default();
        for key in search_space_keys() {
            let t_b = key.block_elems() as f64 * per_elem;
            p.set(key, BlockTimes { t_b, nof });
        }
        p
    }

    /// A synthetic profile for tests: every kernel gets the same `t_b`
    /// and `nof`.
    pub fn uniform(t_b: f64, nof: f64) -> Self {
        let mut p = KernelProfile::default();
        for key in search_space_keys() {
            p.set(key, BlockTimes { t_b, nof });
        }
        p
    }
}

/// Sizing and measurement knobs for [`profile_kernels`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileOptions {
    /// Target byte footprint of the L1-resident profiling matrix
    /// (`0` = half the machine's L1).
    pub small_bytes: usize,
    /// Target byte footprint of the out-of-cache profiling matrix
    /// (`0` = twice the machine's LLC, capped at 64 MiB).
    pub large_bytes: usize,
    /// Minimum timing window per measurement, seconds.
    pub min_time: f64,
    /// Timing batches (best-of).
    pub batches: usize,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            small_bytes: 0,
            large_bytes: 0,
            min_time: 3e-3,
            batches: 3,
        }
    }
}

/// Dense square profiling matrix with side rounded down to a multiple of
/// 8 (so every block shape tiles it exactly).
fn profiling_matrix<T: Scalar>(target_bytes: usize) -> Csr<T> {
    let n = ((target_bytes / T::BYTES) as f64).sqrt() as usize;
    let n = (n / 8 * 8).max(16);
    Csr::from_dense(&DenseMatrix::<T>::profiling(n, n))
}

/// What the profiler needs of a format beyond [`SpMv`]: the block count
/// `t_b` is divided by, and a kernel switch, so that one build per
/// profiling matrix serves every implementation of a geometry.
trait Profiled<T: Scalar>: SpMv<T> {
    fn blocks(&self) -> usize;
    fn set_imp(&mut self, imp: KernelImpl);
}

/// CSR is the degenerate 1×1 blocking (`nb = nnz`) with one kernel.
impl<T: Scalar> Profiled<T> for Csr<T> {
    fn blocks(&self) -> usize {
        self.nnz()
    }
    fn set_imp(&mut self, _: KernelImpl) {}
}

macro_rules! profiled {
    ($($format:ident),*) => {$(
        impl<T: SimdScalar> Profiled<T> for $format<T> {
            fn blocks(&self) -> usize {
                self.n_blocks()
            }
            fn set_imp(&mut self, imp: KernelImpl) {
                self.set_kernel_impl(imp);
            }
        }
    )*};
}

profiled!(Bcsr, Bcsd, SellCSigma);

/// The two dense profiling matrices, their input vectors, and the
/// measurements taken so far.
struct Profiler<'a, T> {
    machine: &'a MachineProfile,
    opts: &'a ProfileOptions,
    x_small: Vec<T>,
    x_large: Vec<T>,
    out: Vec<(KernelKey, BlockTimes)>,
}

impl<T: Scalar> Profiler<'_, T> {
    /// Times every key of one geometry on its two builds, switching the
    /// kernel in place between keys.
    fn time<F: Profiled<T>>(&mut self, small: &mut F, large: &mut F, keys: &[KernelKey]) {
        let (min_time, batches) = (self.opts.min_time, self.opts.batches);
        for &key in keys {
            if let Some(imp) = imp_of(key) {
                small.set_imp(imp);
                large.set_imp(imp);
            }
            let t_small = measure_spmv(small, &self.x_small, min_time, batches);
            let t_b = t_small / small.blocks().max(1) as f64;
            let t_large = measure_spmv(large, &self.x_large, min_time, batches);
            // Eq. 4: the compute time not hidden behind the streaming
            // transfers, over the estimated total compute time.
            let t_mem = large.working_set_bytes() as f64 / self.machine.bandwidth;
            let nb = large.blocks();
            let nof = if nb == 0 || t_b <= 0.0 {
                1.0
            } else {
                ((t_large - t_mem) / (nb as f64 * t_b)).clamp(0.0, 1.0)
            };
            self.out.push((key, BlockTimes { t_b, nof }));
        }
    }
}

/// The key's kernel implementation; `None` for CSR's single kernel.
fn imp_of(key: KernelKey) -> Option<KernelImpl> {
    match key {
        KernelKey::Csr => None,
        KernelKey::Bcsr { imp, .. } | KernelKey::Bcsd { imp, .. } | KernelKey::Sell { imp, .. } => {
            Some(imp)
        }
    }
}

/// Whether two keys share a block geometry (family and block
/// parameter), and so one built format.
fn same_geometry(a: KernelKey, b: KernelKey) -> bool {
    match (a, b) {
        (KernelKey::Csr, KernelKey::Csr) => true,
        (KernelKey::Bcsr { shape: x, .. }, KernelKey::Bcsr { shape: y, .. }) => x == y,
        (KernelKey::Bcsd { b: x, .. }, KernelKey::Bcsd { b: y, .. }) => x == y,
        (KernelKey::Sell { c: x, .. }, KernelKey::Sell { c: y, .. }) => x == y,
        _ => false,
    }
}

/// Measures `t_b` (L1-resident dense) and `nof` (out-of-cache dense) for
/// each of `keys`; duplicate keys are measured once.
///
/// Each block geometry is built once per profiling matrix and every
/// requested implementation of it is timed on that build. This is the
/// whole-search-space sweep of [`profile_kernels`] and also the bounded
/// re-profile an online tuner runs when residuals implicate specific
/// kernels: cost scales with `keys.len()`.
pub fn profile_keys<T: SimdScalar>(
    machine: &MachineProfile,
    opts: &ProfileOptions,
    keys: &[KernelKey],
) -> Vec<(KernelKey, BlockTimes)> {
    let _span = spmv_telemetry::span_with("model.profile.keys", keys.len() as u64);
    // Sorted, the implementations of one geometry are adjacent.
    let mut todo: Vec<KernelKey> = keys.to_vec();
    todo.sort_unstable();
    todo.dedup();
    if todo.is_empty() {
        return Vec::new();
    }
    let small_bytes = if opts.small_bytes == 0 {
        machine.l1_bytes / 2
    } else {
        opts.small_bytes
    };
    let large_bytes = if opts.large_bytes == 0 {
        // Twice the LLC, capped at 64 MiB: large enough to defeat modest
        // caches, small enough that profiling the full kernel set stays
        // in seconds even on machines with very large last-level caches
        // (where the triad-matched bandwidth keeps the model consistent;
        // DESIGN.md §2).
        (machine.llc_bytes * 2).min(64 << 20)
    } else {
        opts.large_bytes
    };
    let mut small = profiling_matrix::<T>(small_bytes);
    let mut large = profiling_matrix::<T>(large_bytes);
    let vector = |m: &Csr<T>| -> Vec<T> {
        (0..m.n_cols())
            .map(|i| T::from_f64(1.0 + (i % 3) as f64))
            .collect()
    };
    let mut p = Profiler {
        machine,
        opts,
        x_small: vector(&small),
        x_large: vector(&large),
        out: Vec::with_capacity(todo.len()),
    };
    for group in todo.chunk_by(|a, b| same_geometry(*a, *b)) {
        match group[0] {
            KernelKey::Csr => {
                let _s = spmv_telemetry::span("model.profile.csr");
                p.time(&mut small, &mut large, group);
            }
            KernelKey::Bcsr { shape, .. } => {
                // arg packs the block shape as r*256 + c.
                let arg = (shape.r as u64) << 8 | shape.c as u64;
                let _s = spmv_telemetry::span_with("model.profile.bcsr", arg);
                let build = |m| Bcsr::from_csr(m, shape, KernelImpl::Scalar);
                p.time(&mut build(&small), &mut build(&large), group);
            }
            KernelKey::Bcsd { b, .. } => {
                let _s = spmv_telemetry::span_with("model.profile.bcsd", b as u64);
                let build = |m| Bcsd::from_csr(m, b as usize, KernelImpl::Scalar);
                p.time(&mut build(&small), &mut build(&large), group);
            }
            // Dense rows all share one length, so σ = 1 (no sorting) is
            // representative of every σ: the slice widths are identical.
            KernelKey::Sell { c, .. } => {
                let _s = spmv_telemetry::span_with("model.profile.sell", c as u64);
                let build = |m| SellCSigma::from_csr(m, c as usize, 1, KernelImpl::Scalar);
                p.time(&mut build(&small), &mut build(&large), group);
            }
        }
    }
    p.out
}

/// Every kernel key selection can ask for: those of
/// [`Config::enumerate_extended`] with SIMD, plus CSR's.
fn search_space_keys() -> Vec<KernelKey> {
    let mut keys: Vec<KernelKey> = Config::enumerate_extended(true)
        .iter()
        .map(Config::kernel_key)
        .chain([KernelKey::Csr])
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Measures `t_b` and `nof` for every kernel of the search space, both
/// implementations, plus the CSR baseline kernel: [`profile_keys`] over
/// the kernel keys of [`Config::enumerate_extended`].
pub fn profile_kernels<T: SimdScalar>(
    machine: &MachineProfile,
    opts: &ProfileOptions,
) -> KernelProfile {
    let _profile_span = spmv_telemetry::span("model.profile");
    let mut profile = KernelProfile::default();
    for (key, times) in profile_keys::<T>(machine, opts, &search_space_keys()) {
        profile.set(key, times);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_kernels::{BlockShape, BCSD_SIZES, SELL_HEIGHTS};

    fn tiny_opts() -> ProfileOptions {
        ProfileOptions {
            small_bytes: 4 * 1024,
            large_bytes: 32 * 1024,
            min_time: 2e-4,
            batches: 1,
        }
    }

    #[test]
    fn profile_covers_exactly_the_search_space_kernels() {
        // CSR, plus per implementation one kernel per BCSR shape, BCSD
        // size and SELL slice height: the kernel keys of the extended
        // space, derived from it rather than hardcoded.
        let want: std::collections::BTreeSet<KernelKey> = Config::enumerate_extended(true)
            .iter()
            .map(Config::kernel_key)
            .chain([KernelKey::Csr])
            .collect();
        let per_imp = BlockShape::search_space().len() + BCSD_SIZES.len() + SELL_HEIGHTS.len();
        assert_eq!(want.len(), 1 + KernelImpl::ALL.len() * per_imp);
        assert_eq!(want.len(), 59);
        let machine = MachineProfile::paper_testbed();
        let p = profile_kernels::<f64>(&machine, &tiny_opts());
        let got: std::collections::BTreeSet<KernelKey> = p.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, want);
        for (key, t) in p.iter() {
            assert!(t.t_b > 0.0, "{key}: t_b must be positive");
            assert!((0.0..=1.0).contains(&t.nof), "{key}: nof in [0,1]");
        }
    }

    #[test]
    fn larger_blocks_take_longer_per_block() {
        // A 1x8 block does 4x the work of a 1x2 block; allow generous
        // measurement slack but demand the ordering. The tiny profiling
        // windows can invert under scheduler noise from the other
        // timing tests in this binary, so retry before declaring a
        // real ordering violation.
        let machine = MachineProfile::paper_testbed();
        let key = |c| KernelKey::Bcsr {
            shape: BlockShape::new(1, c).unwrap(),
            imp: KernelImpl::Scalar,
        };
        let measure = || {
            let p = profile_keys::<f64>(&machine, &tiny_opts(), &[key(2), key(8)]);
            let t_b = |c| p.iter().find(|(k, _)| *k == key(c)).unwrap().1.t_b;
            (t_b(2), t_b(8))
        };
        let mut last = (0.0, 0.0);
        for _ in 0..3 {
            last = measure();
            if last.1 > last.0 {
                return;
            }
        }
        let (t1, t8) = last;
        panic!("t_b(1x8)={t8} should exceed t_b(1x2)={t1}");
    }

    #[test]
    fn profile_keys_measures_exactly_the_requested_keys() {
        let machine = MachineProfile::paper_testbed();
        let shape = BlockShape::new(2, 2).unwrap();
        let keys = [
            KernelKey::Csr,
            KernelKey::Bcsr {
                shape,
                imp: KernelImpl::Scalar,
            },
            KernelKey::Bcsd {
                b: 4,
                imp: KernelImpl::Simd,
            },
            KernelKey::Sell {
                c: 4,
                imp: KernelImpl::Simd,
            },
            KernelKey::Sell {
                c: 4,
                imp: KernelImpl::Scalar,
            },
            // Duplicate: measured once.
            KernelKey::Csr,
        ];
        let measured = profile_keys::<f64>(&machine, &tiny_opts(), &keys);
        assert_eq!(measured.len(), 5);
        for (key, times) in &measured {
            assert!(times.t_b > 0.0, "{key}: t_b must be positive");
            assert!((0.0..=1.0).contains(&times.nof), "{key}: nof in [0,1]");
        }
        let csr_rows = measured
            .iter()
            .filter(|(k, _)| *k == KernelKey::Csr)
            .count();
        assert_eq!(csr_rows, 1);
        assert!(profile_keys::<f64>(&machine, &tiny_opts(), &[]).is_empty());
    }

    #[test]
    fn keys_of_one_geometry_are_grouped_for_one_build() {
        let mut keys = search_space_keys();
        keys.reverse();
        keys.sort_unstable();
        let groups = keys.chunk_by(|a, b| same_geometry(*a, *b)).count();
        let geometries =
            1 + BlockShape::search_space().len() + BCSD_SIZES.len() + SELL_HEIGHTS.len();
        assert_eq!(groups, geometries);
    }

    #[test]
    fn synthetic_profiles_cover_the_search_space() {
        let p = KernelProfile::uniform(1e-9, 0.5);
        assert_eq!(p.len(), search_space_keys().len());
        assert_eq!(p.get(KernelKey::Csr).nof, 0.5);
        let p = KernelProfile::proportional(1e-9, 0.5);
        assert_eq!(p.len(), search_space_keys().len());
        let shape = BlockShape::new(2, 4).unwrap();
        let t = p.get(KernelKey::Bcsr {
            shape,
            imp: KernelImpl::Simd,
        });
        assert_eq!(t.t_b, 8e-9);
    }

    #[test]
    fn fill_missing_completes_a_truncated_calibration() {
        use crate::{read_profile, select, select_extended, Model};
        // A calibration cut short after its CSR line.
        let head = "blocked-spmv-profile v1\nmachine 1.38e10 49152 110100480\ncsr 4.9e-10 0.82\n";
        let (machine, mut profile) = read_profile(head.as_bytes()).unwrap();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile.fill_missing::<f64>(&machine, &tiny_opts()), 58);
        assert_eq!(profile.len(), search_space_keys().len());
        assert_eq!(profile.fill_missing::<f64>(&machine, &tiny_opts()), 0);
        let csr = spmv_gen::GenSpec::Stencil2d { nx: 12, ny: 12 }.build(0);
        for model in Model::ALL {
            let _ = select(model, &csr, &machine, &profile, true);
            let _ = select_extended(model, &csr, &machine, &profile, true);
        }
    }

    #[test]
    #[should_panic(expected = "missing from profile")]
    fn missing_key_panics() {
        let p = KernelProfile::default();
        let _ = p.get(KernelKey::Csr);
    }

    #[test]
    fn profiling_matrix_side_is_multiple_of_8() {
        let m: Csr<f64> = profiling_matrix(16 * 1024);
        assert_eq!(spmv_core::MatrixShape::n_rows(&m) % 8, 0);
    }
}
