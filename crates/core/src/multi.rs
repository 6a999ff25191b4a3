//! The multi-vector (SpMM) driver shared by every format's `k > 1` path.
//!
//! [`SpMvMulti`](crate::SpMvMulti) takes `X` column-major: vector `t` is
//! `x[t * n_cols .. (t + 1) * n_cols]`. A kernel that walks the matrix
//! once for `k` vectors then gathers `k` values from `k` distant places
//! for every stored element, which costs `k` cache lines where one
//! element of one vector needs one. The formats therefore run each chunk
//! of vectors on a copy of `X` laid out as *k-tuples*: `xi[j * k + t] =
//! x[t * n_cols + j]`, so the `k` values a stored element `(i, j)` needs
//! are one contiguous load. `Y` stays column-major.
//!
//! [`chunked`] is the one driver: it splits `k` greedily into chunks of
//! 8, 4, 2 and 1 vectors ([`multi_chunk`]), hands a one-vector chunk to
//! the single-vector kernel on the column itself, and copies a wider
//! chunk once into this thread's reused scratch ([`with_tuples`]) before
//! its k-tuple kernel runs.

use crate::Scalar;

/// The largest chunk width of 8, 4, 2 and 1 not exceeding `rem` — the
/// greedy rule that covers any `k` (`k = 7` runs as `4 + 2 + 1`). The
/// widths above 1 have k-tuple kernels.
#[inline]
pub fn multi_chunk(rem: usize) -> usize {
    debug_assert!(rem > 0);
    match rem {
        1 => 1,
        2..=3 => 2,
        4..=7 => 4,
        _ => 8,
    }
}

/// Columns copied per pass of the copy: a tile of `k` 64-element runs
/// read from `x` and `64 * k` contiguous elements written to the
/// scratch, both small enough to stay in L1.
const TILE: usize = 64;

/// Runs `f` on the `k` column-major vectors of `x` copied as k-tuples
/// (`xi[j * k + t] = x[t * m + j]`, `m = x.len() / k`) into this thread's
/// reused scratch ([`Scalar::with_scratch`]), which grows to at most
/// `x.len()` elements.
pub fn with_tuples<T: Scalar, R>(x: &[T], k: usize, f: impl FnOnce(&[T]) -> R) -> R {
    debug_assert!(k > 0 && x.len().is_multiple_of(k));
    T::with_scratch(x.len(), |xi| {
        match k {
            2 => interleave::<T, 2>(x, xi),
            4 => interleave::<T, 4>(x, xi),
            8 => interleave::<T, 8>(x, xi),
            _ => {
                let m = x.len() / k;
                for (t, col) in x.chunks_exact(m.max(1)).enumerate() {
                    for (j, &v) in col.iter().enumerate() {
                        xi[j * k + t] = v;
                    }
                }
            }
        }
        f(xi)
    })
}

/// The k-tuple copy for a constant `K`, tile by tile ([`TILE`]).
fn interleave<T: Scalar, const K: usize>(x: &[T], xi: &mut [T]) {
    let m = x.len() / K;
    let (tuples, _) = xi.as_chunks_mut::<K>();
    for j0 in (0..m).step_by(TILE) {
        let j1 = (j0 + TILE).min(m);
        for (t, col) in x.chunks_exact(m).enumerate() {
            for (tuple, &v) in tuples[j0..j1].iter_mut().zip(&col[j0..j1]) {
                tuple[t] = v;
            }
        }
    }
}

/// Runs a `k`-vector multiply chunk by chunk ([`multi_chunk`]) over
/// column-major `x` (`k` vectors) and `y` (`k` outputs).
///
/// A one-vector chunk calls `single(x_t, y_t)` on the columns
/// themselves; a chunk of `kc > 1` vectors calls `tuples(xi, y_chunk,
/// kc)` with its inputs as kc-tuples ([`with_tuples`]) and `y_chunk` its
/// `kc` column-major outputs. Callers check the dimensions first.
pub fn chunked<T: Scalar>(
    x: &[T],
    y: &mut [T],
    k: usize,
    mut single: impl FnMut(&[T], &mut [T]),
    mut tuples: impl FnMut(&[T], &mut [T], usize),
) {
    let (m, n) = (x.len() / k, y.len() / k);
    let mut t0 = 0;
    while t0 < k {
        let kc = multi_chunk(k - t0);
        let xc = &x[t0 * m..(t0 + kc) * m];
        let yc = &mut y[t0 * n..(t0 + kc) * n];
        if kc == 1 {
            single(xc, yc);
        } else {
            with_tuples(xc, kc, |xi| tuples(xi, yc, kc));
        }
        t0 += kc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_greedy() {
        let widths = |mut k: usize| {
            let mut w = Vec::new();
            while k > 0 {
                let c = multi_chunk(k);
                w.push(c);
                k -= c;
            }
            w
        };
        assert_eq!(widths(11), [8, 2, 1]);
        assert_eq!(widths(7), [4, 2, 1]);
        assert_eq!(widths(16), [8, 8]);
        assert_eq!(widths(3), [2, 1]);
    }

    #[test]
    fn tuples_interleave_the_columns() {
        // Three vectors of length 70 (more than one tile).
        let m = 70;
        let x: Vec<f64> = (0..3 * m).map(|i| i as f64).collect();
        with_tuples(&x, 3, |xi| {
            assert_eq!(xi.len(), 3 * m);
            for j in 0..m {
                for t in 0..3 {
                    assert_eq!(xi[j * 3 + t], x[t * m + j], "j={j} t={t}");
                }
            }
        });
        // Zero-length vectors are a valid (empty) block.
        with_tuples::<f32, _>(&[], 4, |xi| assert!(xi.is_empty()));
    }

    #[test]
    fn chunked_routes_single_and_tuple_chunks() {
        let (m, n, k) = (5, 2, 11);
        let x: Vec<f64> = (0..k * m).map(|i| i as f64).collect();
        let mut y = vec![0.0; k * n];
        let calls = core::cell::RefCell::new(Vec::new());
        chunked(
            &x,
            &mut y,
            k,
            |xc, yc| {
                calls.borrow_mut().push((1, xc[0]));
                yc.fill(1.0);
            },
            |xi, yc, kc| {
                // The first tuple holds element 0 of each of the chunk's
                // vectors.
                calls.borrow_mut().push((kc, xi[0]));
                assert_eq!(xi[1], xi[0] + m as f64);
                yc.fill(kc as f64);
            },
        );
        assert_eq!(calls.into_inner(), [(8, 0.0), (2, 40.0), (1, 50.0)]);
        assert_eq!(&y[..8 * n], &[8.0; 16]);
        assert_eq!(&y[8 * n..10 * n], &[2.0; 4]);
        assert_eq!(&y[10 * n..], &[1.0; 2]);
    }
}
