//! SELL-C-σ slice kernels.
//!
//! SELL-C-σ (Kreutzer et al., arXiv:1307.6209) stores the matrix as
//! slices of `C` consecutive (sorted) rows, each padded to the slice's
//! widest row and laid out column-major within the slice: entry
//! `(j, lane)` of a slice lives at `j * C + lane`, so one vector load
//! fetches the `j`-th element of `C` adjacent rows at once. The kernels
//! here process one slice: `C` independent row accumulators advance in
//! lockstep down the slice columns — the [`crate::block::dot_run_core`]
//! shape transposed across `C` lanes.
//!
//! **Bitwise contract.** Every lane's accumulation is a self-contained
//! fused `a.mul_add(x[col], acc)` chain from `T::ZERO` in increasing
//! column order — exactly the CSR row chain — and padded slots are
//! skipped by a per-lane length guard rather than multiplied as zeros
//! (accumulating a padded `+0.0` product could flip a `-0.0` sum). The
//! [`LaneEngine`] only changes *how the value stream is loaded* (one
//! vector load per lane group vs. scalar loads) and never the per-lane
//! arithmetic, so scalar and SIMD kernels — and therefore SELL-C-σ and
//! CSR — produce bitwise-identical results.
//!
//! **Multi-vector.** [`sell_slice_tuples`] reads `K` vectors as
//! `K`-tuples (`xi[j * K + t]`, see [`spmv_core::multi`]): each stored
//! element takes one contiguous tuple load into its lane's `K` chains,
//! and padded slots are skipped by the same length guard. Each chain is
//! the single-vector lane chain, so there is one core for both
//! implementations.

use crate::block::{in_passes, rows_per_pass};
use crate::engine::{LaneEngine, ScalarEngine};
use crate::simd::SimdScalar;
use spmv_core::{Index, Scalar};

/// Slice heights with dedicated kernel specializations, matched to the
/// engine lane widths (2 = SSE f64, 4 = SSE f32, 8 = two f32 vectors).
pub const SELL_HEIGHTS: [usize; 3] = [2, 4, 8];

/// A kernel processing one SELL slice for a single input vector:
/// `kernel(vals, cols, lens, x, yslice)` **assigns** the `C` per-lane
/// accumulator chains into `yslice[0..C]` (callers own the scatter
/// through the row permutation). `vals`/`cols` hold the slice's
/// column-major storage (`width * C` entries), `lens` the true row
/// length of each lane.
pub type SellSliceKernel<T> = fn(&[T], &[Index], &[Index], &[T], &mut [T]);

/// A kernel processing one SELL slice against `K` input vectors read as
/// `K`-tuples: `kernel(vals, cols, lens, xi, yslice)` assigns the chains
/// for vector `t` into `yslice[t * C..(t + 1) * C]`.
pub type SellSliceMultiKernel<T> = fn(&[T], &[Index], &[Index], &[T], &mut [T]);

/// The single-vector SELL slice core: `C` lanes (rows).
///
/// Walks the slice column-major (`j` outer, lane inner). Lane groups of
/// `E::LANES` share one vector load of the value stream; lanes past the
/// last full group (`C < E::LANES`) load scalar. Both paths feed the
/// identical per-lane fused chain, so the engine choice never alters
/// the result.
fn sell_slice<T: Scalar, E: LaneEngine<T>, const C: usize>(
    vals: &[T],
    cols: &[Index],
    lens: &[Index],
    x: &[T],
    yslice: &mut [T],
) {
    debug_assert!(vals.len().is_multiple_of(C));
    debug_assert_eq!(cols.len(), vals.len());
    debug_assert_eq!(lens.len(), C);
    debug_assert_eq!(yslice.len(), C);
    let width = vals.len() / C;
    let mut acc = [T::ZERO; C];
    for j in 0..width {
        let base = j * C;
        let mut l = 0;
        while l + E::LANES <= C {
            // One vector load covers E::LANES adjacent lanes of column j.
            let v = unsafe { E::load(vals.as_ptr().add(base + l)) };
            for q in 0..E::LANES {
                let lane = l + q;
                if j < lens[lane] as usize {
                    let a = E::lane(v, q);
                    let col = cols[base + lane] as usize;
                    acc[lane] = a.mul_add(x[col], acc[lane]);
                }
            }
            l += E::LANES;
        }
        // Lanes beyond the last full vector group (C < E::LANES).
        while l < C {
            if j < lens[l] as usize {
                let a = vals[base + l];
                let col = cols[base + l] as usize;
                acc[l] = a.mul_add(x[col], acc[l]);
            }
            l += 1;
        }
    }
    for (lane, &a) in acc.iter().enumerate() {
        yslice[lane] = a;
    }
}

/// The k-tuple SELL slice core: `C` lanes × `K` vectors, the lanes in
/// passes ([`crate::block::rows_per_pass`]).
pub fn sell_slice_tuples<T: Scalar, const C: usize, const K: usize>(
    vals: &[T],
    cols: &[Index],
    lens: &[Index],
    xi: &[T],
    yslice: &mut [T],
) {
    debug_assert!(vals.len().is_multiple_of(C));
    debug_assert_eq!(cols.len(), vals.len());
    debug_assert_eq!(lens.len(), C);
    debug_assert_eq!(yslice.len(), C * K);
    let (tuples, _) = xi.as_chunks::<K>();
    macro_rules! pass {
        ($n:tt, $l0:expr) => {
            sell_tuple_lanes::<T, C, K, $n>(vals, cols, lens, tuples, $l0, yslice)
        };
    }
    in_passes!(C, K * size_of::<T>(), pass);
}

/// The `N` lanes `l0 .. l0 + N` of a SELL slice, column by column up to
/// their longest row, each lane's chain guarded by its length.
#[inline(always)]
fn sell_tuple_lanes<T: Scalar, const C: usize, const K: usize, const N: usize>(
    vals: &[T],
    cols: &[Index],
    lens: &[Index],
    tuples: &[[T; K]],
    l0: usize,
    yslice: &mut [T],
) {
    let lens = &lens[l0..l0 + N];
    let width = lens.iter().max().map_or(0, |&w| w as usize);
    let mut acc = [[T::ZERO; K]; N];
    for j in 0..width {
        for (n, (sums, &len)) in acc.iter_mut().zip(lens).enumerate() {
            if j < len as usize {
                let a = vals[j * C + l0 + n];
                T::mul_add_tuple(sums, a, &tuples[cols[j * C + l0 + n] as usize]);
            }
        }
    }
    for (n, sums) in acc.iter().enumerate() {
        for (t, &s) in sums.iter().enumerate() {
            yslice[t * C + l0 + n] = s;
        }
    }
}

macro_rules! dispatch_c {
    ($c:expr, $apply:ident) => {
        match $c {
            2 => $apply!(2),
            4 => $apply!(4),
            8 => $apply!(8),
            _ => None,
        }
    };
}

fn sell_slice_kernel_engine<T: Scalar, E: LaneEngine<T>>(c: usize) -> Option<SellSliceKernel<T>> {
    macro_rules! apply {
        ($c:literal) => {
            Some(sell_slice::<T, E, $c> as SellSliceKernel<T>)
        };
    }
    dispatch_c!(c, apply)
}

/// SELL slice kernel for `(c, imp)`, with the same transparent
/// SIMD→scalar fallback as the block-kernel getters.
///
/// # Panics
///
/// Panics if `c` is not one of [`SELL_HEIGHTS`].
pub fn sell_slice_kernel<T: SimdScalar>(
    c: usize,
    imp: crate::shapes::KernelImpl,
) -> SellSliceKernel<T> {
    match imp {
        crate::shapes::KernelImpl::Scalar => sell_slice_kernel_engine::<T, ScalarEngine>(c),
        crate::shapes::KernelImpl::Simd => sell_slice_kernel_engine::<T, T::Engine>(c),
    }
    .unwrap_or_else(|| panic!("unsupported SELL slice height {c}"))
}

/// K-tuple SELL slice kernel for `(c, k)`; `None` unless `k` is 2, 4 or
/// 8 (callers chunk, as with the block kernels). One core serves both
/// implementations: walking a lane's row leaves no value vector to load.
pub fn sell_slice_multi_kernel<T: Scalar>(c: usize, k: usize) -> Option<SellSliceMultiKernel<T>> {
    macro_rules! apply {
        ($c:literal) => {
            match k {
                2 => Some(sell_slice_tuples::<T, $c, 2> as SellSliceMultiKernel<T>),
                4 => Some(sell_slice_tuples::<T, $c, 4> as SellSliceMultiKernel<T>),
                8 => Some(sell_slice_tuples::<T, $c, 8> as SellSliceMultiKernel<T>),
                _ => None,
            }
        };
    }
    dispatch_c!(c, apply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::KernelImpl;

    /// The CSR reference chain for one lane: fused mul_add in column
    /// order from zero, padded slots untouched.
    fn reference_lane(
        vals: &[f64],
        cols: &[Index],
        len: usize,
        c: usize,
        lane: usize,
        x: &[f64],
    ) -> f64 {
        let mut acc = 0.0f64;
        for j in 0..len {
            acc = vals[j * c + lane].mul_add(x[cols[j * c + lane] as usize], acc);
        }
        acc
    }

    #[test]
    fn every_height_dispatches_and_matches_reference() {
        // width-3 slice: lane lengths 3, 1, 0, 2, ... per height.
        let x: Vec<f64> = (0..10).map(|i| 0.5 + i as f64).collect();
        for c in SELL_HEIGHTS {
            let width = 3usize;
            let mut vals = vec![0.0f64; width * c];
            let mut cols = vec![0 as Index; width * c];
            let lens: Vec<Index> = (0..c).map(|l| ((3 + l) % (width + 1)) as Index).collect();
            for lane in 0..c {
                for j in 0..lens[lane] as usize {
                    vals[j * c + lane] = 1.0 + (lane * width + j) as f64;
                    cols[j * c + lane] = ((lane + 3 * j) % 10) as Index;
                }
            }
            for imp in KernelImpl::ALL {
                let kern = sell_slice_kernel::<f64>(c, imp);
                let mut y = vec![f64::NAN; c];
                kern(&vals, &cols, &lens, &x, &mut y);
                for lane in 0..c {
                    let want = reference_lane(&vals, &cols, lens[lane] as usize, c, lane, &x);
                    assert_eq!(y[lane].to_bits(), want.to_bits(), "c={c} lane={lane} {imp}");
                }
            }
        }
    }

    #[test]
    fn scalar_and_simd_agree_bitwise_f32() {
        let x: Vec<f32> = (0..16).map(|i| 0.25 + (i as f32) * 0.75).collect();
        for c in SELL_HEIGHTS {
            let width = 5usize;
            let mut vals = vec![0.0f32; width * c];
            let mut cols = vec![0 as Index; width * c];
            let lens: Vec<Index> = (0..c)
                .map(|l| ((l * 3 + 1) % (width + 1)) as Index)
                .collect();
            for lane in 0..c {
                for j in 0..lens[lane] as usize {
                    vals[j * c + lane] = 0.1 + (lane + j) as f32;
                    cols[j * c + lane] = ((lane * 7 + j * 3) % 16) as Index;
                }
            }
            let mut ys = vec![0.0f32; c];
            let mut yv = vec![0.0f32; c];
            sell_slice_kernel::<f32>(c, KernelImpl::Scalar)(&vals, &cols, &lens, &x, &mut ys);
            sell_slice_kernel::<f32>(c, KernelImpl::Simd)(&vals, &cols, &lens, &x, &mut yv);
            assert_eq!(
                ys.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                yv.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "c={c}"
            );
        }
    }

    #[test]
    fn multi_kernel_matches_repeated_single_calls() {
        let c = 4usize;
        let width = 4usize;
        let m = 12usize;
        let mut vals = vec![0.0f64; width * c];
        let mut cols = vec![0 as Index; width * c];
        let lens: Vec<Index> = vec![4, 2, 0, 3];
        for lane in 0..c {
            for j in 0..lens[lane] as usize {
                vals[j * c + lane] = (1 + lane * 5 + j) as f64 * 0.3;
                cols[j * c + lane] = ((lane + j * 2) % m) as Index;
            }
        }
        for k in [2, 4, 8] {
            let x: Vec<f64> = (0..m * k).map(|i| 0.125 * (i as f64 + 1.0) / 3.0).collect();
            let xi = spmv_core::multi::with_tuples(&x, k, <[f64]>::to_vec);
            let multi = sell_slice_multi_kernel::<f64>(c, k).unwrap();
            let mut ym = vec![f64::NAN; c * k];
            multi(&vals, &cols, &lens, &xi, &mut ym);
            for imp in KernelImpl::ALL {
                let single = sell_slice_kernel::<f64>(c, imp);
                for t in 0..k {
                    let mut y1 = vec![0.0f64; c];
                    single(&vals, &cols, &lens, &x[t * m..(t + 1) * m], &mut y1);
                    assert_eq!(
                        ym[t * c..(t + 1) * c]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        y1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "k={k} t={t} {imp}"
                    );
                }
            }
        }
        assert!(sell_slice_multi_kernel::<f64>(c, 1).is_none());
        assert!(sell_slice_multi_kernel::<f64>(c, 3).is_none());
    }

    #[test]
    #[should_panic(expected = "unsupported SELL slice height")]
    fn unsupported_height_panics() {
        let _ = sell_slice_kernel::<f64>(3, KernelImpl::Scalar);
    }
}
