//! Lane engines: the accumulation micro-semantics behind the generic
//! block core.
//!
//! A [`LaneEngine`] captures everything that distinguished the old
//! per-implementation kernel copies — lane width, load/multiply/add
//! style, horizontal reduction, and how a vector accumulator combines
//! with its scalar tail — so [`crate::block`] can hold **one** generic
//! core per format and monomorphize it per `(engine, shape, k)`:
//!
//! * [`ScalarEngine`] — `LANES = 1`, fused `mul_add` accumulation.
//!   Instantiating the core with it reproduces the old scalar kernels'
//!   accumulation order bitwise.
//! * [`SseF64`] / [`SseF32`] (x86-64 only) — 2-/4-lane SSE2 with
//!   separate multiply-then-add vector ops and plain (non-fused) scalar
//!   tails, reproducing the old hand-written SSE kernels bitwise.
//!
//! On non-x86 targets [`crate::simd::SimdScalar::Engine`] is
//! [`ScalarEngine`], so the `*-simd` configurations still exist and
//! simply coincide with the scalar ones — the same fallback rule the old
//! per-method dispatch had.

use spmv_core::Scalar;

/// One SIMD (or degenerate 1-lane) accumulation strategy over `T`.
///
/// The contract mirrors what the block kernels need and nothing more:
/// a `Vec` of `LANES` elements, an accumulating multiply in the
/// engine's native style, per-lane extraction for the element-wise
/// (BCSD) epilogue, and [`LaneEngine::finish`] for the dot-style (BCSR)
/// epilogue combining the vector accumulator with its scalar-tail
/// accumulator.
pub trait LaneEngine<T: Scalar>: 'static {
    /// The vector register type (`T` itself for [`ScalarEngine`]).
    type Vec: Copy;
    /// Lane count of [`LaneEngine::Vec`].
    const LANES: usize;

    /// The all-zero vector.
    fn zero() -> Self::Vec;

    /// Loads `LANES` contiguous elements starting at `p` (unaligned).
    ///
    /// # Safety
    ///
    /// `p .. p + LANES` must be readable `T`s.
    unsafe fn load(p: *const T) -> Self::Vec;

    /// `acc` updated with `a * x`, in the engine's native style: fused
    /// `mul_add` for the scalar engine, separate multiply-then-add for
    /// the SSE engines (SSE2 has no FMA).
    fn mul_acc(acc: Self::Vec, a: Self::Vec, x: Self::Vec) -> Self::Vec;

    /// Lane `q` of `v` (`q < LANES`).
    fn lane(v: Self::Vec, q: usize) -> T;

    /// Horizontal sum of all lanes, in the engine's historical
    /// reduction order.
    fn hsum(v: Self::Vec) -> T;

    /// Scalar-tail accumulation `acc` updated with `a * x`, again in
    /// the engine's native style. It is also what
    /// [`LaneEngine::mul_acc`] does to each lane, which lets the k-tuple
    /// cores in [`crate::block`] run a vector accumulator's lanes as
    /// separate scalar sums.
    fn tail_mul_add(acc: T, a: T, x: T) -> T;

    /// Combines a row's vector accumulator with its scalar-tail
    /// accumulator for the dot-style epilogue.
    ///
    /// The scalar engine returns `acc` alone: at `LANES = 1` the tail
    /// loop is unreachable (`tail` is provably `T::ZERO`), and adding
    /// an explicit zero could still flip a `-0.0` sum to `+0.0`.
    fn finish(acc: Self::Vec, tail: T) -> T;
}

/// The widest [`LaneEngine::LANES`] of any engine (`SseF32`).
pub const MAX_LANES: usize = 4;

/// The 1-lane engine: plain scalar accumulation with fused `mul_add`.
pub struct ScalarEngine;

impl<T: Scalar> LaneEngine<T> for ScalarEngine {
    type Vec = T;
    const LANES: usize = 1;

    #[inline(always)]
    fn zero() -> T {
        T::ZERO
    }

    #[inline(always)]
    unsafe fn load(p: *const T) -> T {
        *p
    }

    #[inline(always)]
    fn mul_acc(acc: T, a: T, x: T) -> T {
        a.mul_add(x, acc)
    }

    #[inline(always)]
    fn lane(v: T, _q: usize) -> T {
        v
    }

    #[inline(always)]
    fn hsum(v: T) -> T {
        v
    }

    #[inline(always)]
    fn tail_mul_add(acc: T, a: T, x: T) -> T {
        a.mul_add(x, acc)
    }

    #[inline(always)]
    fn finish(acc: T, _tail: T) -> T {
        acc
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::LaneEngine;
    use core::arch::x86_64::*;

    /// 2-lane SSE2 engine over `f64`.
    pub struct SseF64;

    impl LaneEngine<f64> for SseF64 {
        type Vec = __m128d;
        const LANES: usize = 2;

        #[inline(always)]
        fn zero() -> __m128d {
            unsafe { _mm_setzero_pd() }
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> __m128d {
            _mm_loadu_pd(p)
        }

        #[inline(always)]
        fn mul_acc(acc: __m128d, a: __m128d, x: __m128d) -> __m128d {
            unsafe { _mm_add_pd(acc, _mm_mul_pd(a, x)) }
        }

        #[inline(always)]
        fn lane(v: __m128d, q: usize) -> f64 {
            unsafe {
                if q == 0 {
                    _mm_cvtsd_f64(v)
                } else {
                    _mm_cvtsd_f64(_mm_unpackhi_pd(v, v))
                }
            }
        }

        #[inline(always)]
        fn hsum(v: __m128d) -> f64 {
            unsafe { _mm_cvtsd_f64(v) + _mm_cvtsd_f64(_mm_unpackhi_pd(v, v)) }
        }

        #[inline(always)]
        fn tail_mul_add(acc: f64, a: f64, x: f64) -> f64 {
            acc + a * x
        }

        #[inline(always)]
        fn finish(acc: __m128d, tail: f64) -> f64 {
            <Self as LaneEngine<f64>>::hsum(acc) + tail
        }
    }

    /// 4-lane SSE2 engine over `f32`.
    pub struct SseF32;

    impl LaneEngine<f32> for SseF32 {
        type Vec = __m128;
        const LANES: usize = 4;

        #[inline(always)]
        fn zero() -> __m128 {
            unsafe { _mm_setzero_ps() }
        }

        #[inline(always)]
        unsafe fn load(p: *const f32) -> __m128 {
            _mm_loadu_ps(p)
        }

        #[inline(always)]
        fn mul_acc(acc: __m128, a: __m128, x: __m128) -> __m128 {
            unsafe { _mm_add_ps(acc, _mm_mul_ps(a, x)) }
        }

        #[inline(always)]
        fn lane(v: __m128, q: usize) -> f32 {
            // Extract via an in-register store, matching the old
            // kernels' `_mm_storeu_ps` epilogue value-for-value.
            let mut lanes = [0.0f32; 4];
            unsafe { _mm_storeu_ps(lanes.as_mut_ptr(), v) };
            lanes[q]
        }

        #[inline(always)]
        fn hsum(v: __m128) -> f32 {
            // (l0 + l2) + (l1 + l3): the SSE1 movehl/shuffle reduction
            // the old kernels used.
            unsafe {
                let hi = _mm_movehl_ps(v, v); // lanes [2, 3, 2, 3]
                let sum2 = _mm_add_ps(v, hi); // lanes [0+2, 1+3, _, _]
                let lane1 = _mm_shuffle_ps(sum2, sum2, 0b01_01_01_01);
                _mm_cvtss_f32(_mm_add_ss(sum2, lane1))
            }
        }

        #[inline(always)]
        fn tail_mul_add(acc: f32, a: f32, x: f32) -> f32 {
            acc + a * x
        }

        #[inline(always)]
        fn finish(acc: __m128, tail: f32) -> f32 {
            <Self as LaneEngine<f32>>::hsum(acc) + tail
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{SseF32, SseF64};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_engine_is_one_fused_lane() {
        assert_eq!(<ScalarEngine as LaneEngine<f64>>::LANES, 1);
        let acc = <ScalarEngine as LaneEngine<f64>>::mul_acc(1.0, 2.0, 3.0);
        assert_eq!(acc, 7.0);
        assert_eq!(<ScalarEngine as LaneEngine<f64>>::hsum(acc), 7.0);
        assert_eq!(<ScalarEngine as LaneEngine<f64>>::lane(acc, 0), 7.0);
        // finish ignores the (always-zero) tail and must not add it:
        // `-0.0 + 0.0` would flip the sign of a negative-zero sum.
        let neg = <ScalarEngine as LaneEngine<f64>>::finish(-0.0, 0.0);
        assert!(neg.is_sign_negative());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse_engines_match_lane_algebra() {
        let v = [1.0f64, 2.0];
        let acc = unsafe { <SseF64 as LaneEngine<f64>>::load(v.as_ptr()) };
        assert_eq!(<SseF64 as LaneEngine<f64>>::lane(acc, 0), 1.0);
        assert_eq!(<SseF64 as LaneEngine<f64>>::lane(acc, 1), 2.0);
        assert_eq!(<SseF64 as LaneEngine<f64>>::hsum(acc), 3.0);
        assert_eq!(<SseF64 as LaneEngine<f64>>::finish(acc, 0.5), 3.5);

        let w = [1.0f32, 2.0, 4.0, 8.0];
        let acc = unsafe { <SseF32 as LaneEngine<f32>>::load(w.as_ptr()) };
        for (q, &l) in w.iter().enumerate() {
            assert_eq!(<SseF32 as LaneEngine<f32>>::lane(acc, q), l);
        }
        // (1 + 4) + (2 + 8)
        assert_eq!(<SseF32 as LaneEngine<f32>>::hsum(acc), 15.0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_mul_acc_is_tail_mul_add_per_lane() {
        let (acc, a, x) = ([0.1f64, -3.7], [1.0f64 / 3.0, 2.9], [7.3f64, -0.11]);
        let v = unsafe {
            <SseF64 as LaneEngine<f64>>::mul_acc(
                SseF64::load(acc.as_ptr()),
                SseF64::load(a.as_ptr()),
                SseF64::load(x.as_ptr()),
            )
        };
        for q in 0..2 {
            let lane = <SseF64 as LaneEngine<f64>>::tail_mul_add(acc[q], a[q], x[q]);
            assert_eq!(SseF64::lane(v, q).to_bits(), lane.to_bits());
        }
        let (acc, a, x) = (
            [0.1f32, -3.7, 5.5, 1e-3],
            [0.3f32, 2.9, -1.25, 7.0],
            [7.3f32, -0.11, 0.7, 3.3],
        );
        let v = unsafe {
            <SseF32 as LaneEngine<f32>>::mul_acc(
                SseF32::load(acc.as_ptr()),
                SseF32::load(a.as_ptr()),
                SseF32::load(x.as_ptr()),
            )
        };
        for q in 0..4 {
            let lane = <SseF32 as LaneEngine<f32>>::tail_mul_add(acc[q], a[q], x[q]);
            assert_eq!(SseF32::lane(v, q).to_bits(), lane.to_bits());
        }
    }
}
