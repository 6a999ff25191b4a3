//! The numeric element trait and precision descriptors.

use core::cell::RefCell;
use core::fmt::{Debug, Display};
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type of a sparse matrix.
///
/// The paper evaluates every storage format in *single precision* (`f32`,
/// reported as `sp`) and *double precision* (`f64`, reported as `dp`);
/// this trait is the abstraction that lets every kernel, format, and model
/// in the workspace be written once for both.
///
/// The trait is deliberately small: kernels only need a ring with
/// `mul_add`, and the performance models need lossless conversion to `f64`
/// for time arithmetic.
pub trait Scalar:
    Copy
    + Clone
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Size of one element in bytes (`size_of::<Self>()`).
    const BYTES: usize;
    /// The paper's label for this precision: `"sp"` or `"dp"`.
    const PRECISION: Precision;

    /// Lossy conversion from `f64` (used by generators and test fixtures).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used by models and accuracy checks).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Fused/contracted `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Whether the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;

    /// `acc[t] = a * x[t] + acc[t]` for every `t`: one stored element
    /// against a `K`-tuple of vector elements (see [`crate::multi`]).
    ///
    /// On x86-64 it runs as SSE2 multiplies and adds when `K` fills
    /// whole registers; each lane takes the same two roundings as the
    /// scalar [`Scalar::mul_add`], so the sums are bitwise the same.
    fn mul_add_tuple<const K: usize>(acc: &mut [Self; K], a: Self, x: &[Self; K]);

    /// Runs `f` on a scratch slice of `len` elements with unspecified
    /// contents: this thread's reused buffer, which grows to the largest
    /// `len` asked for and is kept for the next call (a nested call, the
    /// buffer already lent out, gets a fresh allocation). The
    /// multi-vector kernels copy their input block here (see
    /// [`crate::multi::with_tuples`]).
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;

    /// Approximate equality with both relative and absolute tolerance.
    ///
    /// Returns `true` when `|self - other| <= max(abs_tol, rel_tol * max(|self|, |other|))`.
    /// This is what format round-trip tests use to compare a blocked SpMV
    /// result against the CSR/dense reference (the summation order differs
    /// between formats, so exact equality does not hold in general).
    fn approx_eq(self, other: Self, rel_tol: f64, abs_tol: f64) -> bool {
        let a = self.to_f64();
        let b = other.to_f64();
        if a == b {
            return true;
        }
        let diff = (a - b).abs();
        let scale = a.abs().max(b.abs());
        diff <= abs_tol.max(rel_tol * scale)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 4;
    const PRECISION: Precision = Precision::Single;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // Plain multiply-add: `f32::mul_add` lowers to a libm call on
        // targets without FMA, which would make the kernels unrepresentative
        // of the paper's compiled C loops.
        self * a + b
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn mul_add_tuple<const K: usize>(acc: &mut [f32; K], a: f32, x: &[f32; K]) {
        #[cfg(target_arch = "x86_64")]
        if K.is_multiple_of(4) {
            use core::arch::x86_64::{
                _mm_add_ps, _mm_loadu_ps, _mm_mul_ps, _mm_set1_ps, _mm_storeu_ps,
            };
            // SAFETY: SSE2 is part of the x86-64 baseline, and every
            // four-lane access starts at `u + 4 <= K`.
            unsafe {
                let av = _mm_set1_ps(a);
                for u in (0..K).step_by(4) {
                    let p = acc.as_mut_ptr().add(u);
                    let prod = _mm_mul_ps(av, _mm_loadu_ps(x.as_ptr().add(u)));
                    _mm_storeu_ps(p, _mm_add_ps(prod, _mm_loadu_ps(p)));
                }
            }
            return;
        }
        // `Scalar::mul_add` by path: the inherent method would fuse.
        for (s, &xv) in acc.iter_mut().zip(x) {
            *s = Scalar::mul_add(a, xv, *s);
        }
    }
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
        lend_scratch(&SCRATCH_F32, len, f)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const BYTES: usize = 8;
    const PRECISION: Precision = Precision::Double;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self * a + b
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn mul_add_tuple<const K: usize>(acc: &mut [f64; K], a: f64, x: &[f64; K]) {
        #[cfg(target_arch = "x86_64")]
        if K.is_multiple_of(2) {
            use core::arch::x86_64::{
                _mm_add_pd, _mm_loadu_pd, _mm_mul_pd, _mm_set1_pd, _mm_storeu_pd,
            };
            // SAFETY: SSE2 is part of the x86-64 baseline, and every
            // two-lane access starts at `u + 2 <= K`.
            unsafe {
                let av = _mm_set1_pd(a);
                for u in (0..K).step_by(2) {
                    let p = acc.as_mut_ptr().add(u);
                    let prod = _mm_mul_pd(av, _mm_loadu_pd(x.as_ptr().add(u)));
                    _mm_storeu_pd(p, _mm_add_pd(prod, _mm_loadu_pd(p)));
                }
            }
            return;
        }
        // `Scalar::mul_add` by path: the inherent method would fuse.
        for (s, &xv) in acc.iter_mut().zip(x) {
            *s = Scalar::mul_add(a, xv, *s);
        }
    }
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
        lend_scratch(&SCRATCH_F64, len, f)
    }
}

thread_local! {
    static SCRATCH_F32: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static SCRATCH_F64: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Lends the first `len` elements of this thread's buffer in `key` to
/// `f`, growing it first if needed; a nested call gets a fresh buffer.
fn lend_scratch<T: Scalar, R>(
    key: &'static std::thread::LocalKey<RefCell<Vec<T>>>,
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    key.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            if buf.len() < len {
                buf.resize(len, T::ZERO);
            }
            f(&mut buf[..len])
        }
        Err(_) => f(&mut vec![T::ZERO; len]),
    })
}

/// Floating-point precision of a configuration, using the paper's labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Precision {
    /// `f32`, reported as `sp` in the paper's tables.
    Single,
    /// `f64`, reported as `dp` in the paper's tables.
    Double,
}

impl Precision {
    /// The paper's table label: `"sp"` or `"dp"`.
    pub const fn label(self) -> &'static str {
        match self {
            Precision::Single => "sp",
            Precision::Double => "dp",
        }
    }

    /// Element size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// Both precisions, in the order the paper reports them (dp first).
    pub const ALL: [Precision; 2] = [Precision::Double, Precision::Single];
}

impl Display for Precision {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<T: Scalar>() {
        assert_eq!(T::from_f64(0.0), T::ZERO);
        assert_eq!(T::from_f64(1.0), T::ONE);
        assert_eq!(T::ZERO.to_f64(), 0.0);
        assert_eq!(T::ONE.to_f64(), 1.0);
        assert_eq!(T::BYTES, core::mem::size_of::<T>());
    }

    #[test]
    fn roundtrip_f32() {
        generic_roundtrip::<f32>();
    }

    #[test]
    fn roundtrip_f64() {
        generic_roundtrip::<f64>();
    }

    #[test]
    fn mul_add_matches_expression() {
        assert_eq!(2.0f64.mul_add(3.0, 4.0), 10.0);
        assert_eq!(2.0f32.mul_add(3.0, 4.0), 10.0);
    }

    #[test]
    fn approx_eq_absolute_tolerance() {
        assert!(1e-12f64.approx_eq(0.0, 0.0, 1e-9));
        assert!(!1e-6f64.approx_eq(0.0, 0.0, 1e-9));
    }

    #[test]
    fn approx_eq_relative_tolerance() {
        let a = 1000.0f64;
        let b = 1000.0f64 * (1.0 + 1e-10);
        assert!(a.approx_eq(b, 1e-9, 0.0));
        assert!(!a.approx_eq(1001.0, 1e-9, 0.0));
    }

    #[test]
    fn approx_eq_handles_exact_zero() {
        assert!(0.0f32.approx_eq(0.0, 0.0, 0.0));
    }

    #[test]
    fn precision_labels_match_paper() {
        assert_eq!(Precision::Single.label(), "sp");
        assert_eq!(Precision::Double.label(), "dp");
        assert_eq!(<f32 as Scalar>::PRECISION, Precision::Single);
        assert_eq!(<f64 as Scalar>::PRECISION, Precision::Double);
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Single.bytes(), 4);
        assert_eq!(Precision::Double.bytes(), 8);
    }

    fn tuple_matches_scalar_chain<T: Scalar, const K: usize>() {
        let x: [T; K] = core::array::from_fn(|t| T::from_f64(0.3 + t as f64 / 7.0));
        let mut acc: [T; K] = core::array::from_fn(|t| T::from_f64(1.0 / (t + 3) as f64));
        let mut want = acc;
        for a in [1.0 / 3.0, -2.7, 1e-3].map(T::from_f64) {
            T::mul_add_tuple(&mut acc, a, &x);
            for (s, &xv) in want.iter_mut().zip(&x) {
                *s = a.mul_add(xv, *s);
            }
        }
        let bits = |v: &[T; K]| v.map(|e| e.to_f64().to_bits());
        assert_eq!(bits(&acc), bits(&want), "K={K}");
    }

    #[test]
    fn mul_add_tuple_is_the_scalar_chain_per_lane() {
        tuple_matches_scalar_chain::<f64, 2>();
        tuple_matches_scalar_chain::<f64, 8>();
        tuple_matches_scalar_chain::<f32, 2>();
        tuple_matches_scalar_chain::<f32, 4>();
        tuple_matches_scalar_chain::<f32, 8>();
    }

    #[test]
    fn scratch_is_reused_per_thread_and_nests() {
        let first = f64::with_scratch(16, |s| {
            s.fill(3.0);
            s.as_ptr() as usize
        });
        // A shorter request lends the same buffer, contents kept.
        let again = f64::with_scratch(4, |s| {
            assert_eq!(s, &[3.0; 4]);
            s.as_ptr() as usize
        });
        assert_eq!(first, again);
        // A nested call cannot share the lent buffer.
        f64::with_scratch(4, |outer| {
            let inner = f64::with_scratch(4, |s| s.as_ptr() as usize);
            assert_ne!(inner, outer.as_ptr() as usize);
        });
    }

    #[test]
    fn non_finite_detection() {
        assert!(!f64::NAN.is_finite());
        assert!(!f32::INFINITY.is_finite());
        assert!(1.0f64.is_finite());
    }
}
