//! The Vuduc/Buttari BCSR fill heuristic — the related-work baseline.
//!
//! "Vuduc et al. \[16\] and Buttari et al. \[3\] propose a simple heuristic
//! that accounts for the computational part of BCSR by estimating the
//! padding of blocks and by profiling a dense matrix, but it is
//! constrained to the BCSR format only" (§I). The paper declines a
//! direct comparison because the heuristic is less general than its
//! models (§IV); it is implemented here so that the comparison is
//! available anyway.
//!
//! The heuristic picks the BCSR shape maximizing
//! `perf_dense(r, c) / fill(r, c)`, where `perf_dense` is the measured
//! SpMV rate (nonzeros per second) of a dense matrix stored as `r x c`
//! BCSR, and `fill >= 1` is the ratio of stored values (with padding) to
//! true nonzeros of the target matrix.

use crate::machine::MachineProfile;
use crate::timing::measure_spmv;
use spmv_core::{Csr, DenseMatrix, Scalar};
use spmv_formats::{bcsr_lane_counts, Bcsr, LaneCounts};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::{BlockShape, KernelImpl, MAX_BLOCK_ELEMS};
use std::collections::HashMap;

/// Measured dense-matrix SpMV rates per (shape, implementation), in
/// nonzeros per second.
#[derive(Debug, Clone, Default)]
pub struct DenseProfile {
    rates: HashMap<(BlockShape, KernelImpl), f64>,
}

impl DenseProfile {
    /// The measured dense rate for a configuration.
    pub fn rate(&self, shape: BlockShape, imp: KernelImpl) -> Option<f64> {
        self.rates.get(&(shape, imp)).copied()
    }

    /// Inserts a rate (exposed for synthetic test profiles).
    pub fn set(&mut self, shape: BlockShape, imp: KernelImpl, rate: f64) {
        self.rates.insert((shape, imp), rate);
    }

    /// Number of profiled configurations.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether no configuration was profiled.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }
}

/// Profiles a dense matrix in every BCSR shape and implementation, as
/// the heuristic prescribes. The dense side length is derived from the
/// machine's LLC (one quarter of it), so the measurement reflects the
/// streaming regime; override with `side` for tests.
pub fn profile_dense<T: SimdScalar>(
    machine: &MachineProfile,
    side: Option<usize>,
    min_time: f64,
) -> DenseProfile {
    let n = side.unwrap_or_else(|| {
        let target = machine.llc_bytes / 4 / T::BYTES;
        ((target as f64).sqrt() as usize / 8 * 8).clamp(64, 4096)
    });
    let dense = Csr::from_dense(&DenseMatrix::<T>::profiling(n, n));
    let x: Vec<T> = (0..n).map(|i| T::from_f64(1.0 + (i % 3) as f64)).collect();
    let mut out = DenseProfile::default();
    for shape in BlockShape::search_space() {
        let mut bcsr = Bcsr::from_csr(&dense, shape, KernelImpl::Scalar);
        for imp in KernelImpl::ALL {
            bcsr.set_kernel_impl(imp);
            let secs = measure_spmv(&bcsr, &x, min_time, 2);
            out.set(shape, imp, dense.nnz() as f64 / secs);
        }
    }
    out
}

/// The heuristic's selection for `csr`: the `(shape, imp)` maximizing
/// `rate_dense / fill`, together with that score (estimated nonzeros per
/// second on the target matrix).
pub fn select_bcsr_shape<T: Scalar>(
    csr: &Csr<T>,
    dense: &DenseProfile,
    include_simd: bool,
) -> (BlockShape, KernelImpl, f64) {
    assert!(!dense.is_empty(), "dense profile required");
    let nnz = csr.nnz().max(1) as f64;
    // One lane pass per block width counts every height of that width.
    let widths: Vec<LaneCounts> = (1..=MAX_BLOCK_ELEMS)
        .map(|c| bcsr_lane_counts(csr, c))
        .collect();
    let mut best: Option<(BlockShape, KernelImpl, f64)> = None;
    for shape in BlockShape::search_space() {
        let counts = widths[shape.cols() - 1].height(shape.rows());
        let fill = counts.padded::<T>(shape.elems(), csr.nnz()).stored as f64 / nnz;
        for imp in KernelImpl::ALL {
            if imp == KernelImpl::Simd && !include_simd {
                continue;
            }
            let Some(rate) = dense.rate(shape, imp) else {
                continue;
            };
            let score = rate / fill;
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((shape, imp, score));
            }
        }
    }
    best.expect("at least one profiled shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_formats::bcsr_stats;
    use spmv_gen::GenSpec;

    /// A synthetic dense profile where the rate grows with block size —
    /// the typical shape of real dense profiles (bigger blocks, fewer
    /// loop overheads).
    fn synthetic_profile() -> DenseProfile {
        let mut p = DenseProfile::default();
        for shape in BlockShape::search_space() {
            for imp in KernelImpl::ALL {
                let base = 1e9 * (1.0 + 0.1 * shape.elems() as f64);
                let simd_boost = if imp == KernelImpl::Simd { 1.2 } else { 1.0 };
                p.set(shape, imp, base * simd_boost);
            }
        }
        p
    }

    #[test]
    fn pure_block_matrix_gets_a_matching_shape() {
        // 2x2-block matrix: 2x2 tiles with fill 1.0; larger shapes pad.
        let mut coo = spmv_core::Coo::new(64, 64);
        for bi in 0..32 {
            for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                coo.push(2 * bi + di, 2 * bi + dj, 1.0).unwrap();
            }
        }
        let csr = Csr::from_coo(&coo);
        let (shape, imp, _) = select_bcsr_shape(&csr, &synthetic_profile(), true);
        // Fill of 2x2 is 1.0; fill of e.g. 2x4 is 2.0, which cancels its
        // higher dense rate. The winner must tile without padding.
        let stats = bcsr_stats(&csr, shape);
        assert_eq!(stats.stored, csr.nnz(), "winner {shape} must not pad");
        assert_eq!(imp, KernelImpl::Simd, "synthetic profile favors simd");
    }

    #[test]
    fn scatter_prefers_small_blocks() {
        let csr = GenSpec::Random {
            n: 300,
            m: 300,
            nnz_per_row: 2,
        }
        .build(1);
        let (shape, _, _) = select_bcsr_shape(&csr, &synthetic_profile(), false);
        // On isolated nonzeros, fill ~ r*c, which outweighs the mild rate
        // growth; the heuristic must stay at small blocks.
        assert!(shape.elems() <= 2, "scatter picked {shape}");
    }

    #[test]
    fn scalar_only_mode_never_picks_simd() {
        let csr = GenSpec::Stencil2d { nx: 12, ny: 12 }.build(0);
        let (_, imp, _) = select_bcsr_shape(&csr, &synthetic_profile(), false);
        assert_eq!(imp, KernelImpl::Scalar);
    }

    #[test]
    fn real_dense_profiling_produces_full_coverage() {
        let machine = MachineProfile::paper_testbed();
        let p = profile_dense::<f32>(&machine, Some(64), 2e-4);
        assert_eq!(p.len(), 19 * 2);
        for shape in BlockShape::search_space() {
            assert!(p.rate(shape, KernelImpl::Scalar).unwrap() > 0.0);
        }
    }
}
