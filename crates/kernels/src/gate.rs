//! The kernel-refactor equivalence gate.
//!
//! Lane-exact **simulators** of the original hand-written kernels
//! (scalar fused-`mul_add` loops; SSE2 2-/4-lane plain multiply-add
//! with the historical horizontal-sum orders) are compared bitwise
//! against whatever [`crate::registry`] dispatches, over a 200-seed
//! random corpus covering every shape, BCSD size, implementation,
//! precision, and k-tuple width (the multi-vector kernels read `x` as
//! k-tuples; the simulators keep reading it column-major).
//!
//! Each simulator models IEEE lane arithmetic exactly — an SSE2 vector
//! op is just an independent IEEE op per lane — so these tests pin the
//! dispatched kernels to the deleted originals' accumulation order
//! bitwise. The gate was run against the *old* registry before the
//! const-generic core replaced it (proving `sim == old`), and runs
//! against the new registry ever since (proving `new == sim`, hence
//! `new == old`).

use crate::registry::{
    bcsd_seg_kernel, bcsd_seg_multi_kernel, bcsr_row_kernel, bcsr_row_multi_kernel, dot_run,
};
use crate::shapes::{BlockShape, KernelImpl};
use crate::simd::SimdScalar;
use spmv_core::multi::with_tuples;
use spmv_core::rng::Rng;
use spmv_core::{Index, Scalar};

const SEEDS: u64 = 200;

fn rand_vals<T: Scalar>(rng: &mut Rng, n: usize) -> Vec<T> {
    (0..n)
        .map(|_| T::from_f64(rng.unit() * 4.0 - 2.0))
        .collect()
}

/// Lane count the dispatched kernel uses for `(T, imp)` on this target.
fn lanes_for<T: Scalar>(imp: KernelImpl) -> usize {
    match imp {
        KernelImpl::Scalar => 1,
        KernelImpl::Simd => {
            if cfg!(target_arch = "x86_64") {
                16 / T::BYTES
            } else {
                1 // SIMD falls back to the scalar kernels off x86-64.
            }
        }
    }
}

/// `acc + a * x` in the engine style implied by the lane count: fused
/// `mul_add` for the 1-lane (scalar) engine, separate multiply-then-add
/// for the SSE engines.
fn mul_acc<T: Scalar>(lanes: usize, acc: T, a: T, x: T) -> T {
    if lanes == 1 {
        a.mul_add(x, acc)
    } else {
        acc + a * x
    }
}

/// Horizontal sum in each engine's historical reduction order.
fn hsum<T: Scalar>(acc: &[T]) -> T {
    match acc.len() {
        1 => acc[0],
        2 => acc[0] + acc[1],                       // cvtsd + unpackhi
        4 => (acc[0] + acc[2]) + (acc[1] + acc[3]), // movehl/shuffle
        n => panic!("no engine has {n} lanes"),
    }
}

/// Simulates the BCSR block-row kernel (any `k`) at `lanes` lanes.
#[allow(clippy::too_many_arguments)]
fn sim_bcsr<T: Scalar>(
    lanes: usize,
    r: usize,
    c: usize,
    k: usize,
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    xs: usize,
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    let mut accv = vec![vec![vec![T::ZERO; lanes]; k]; r];
    let mut accs = vec![vec![T::ZERO; k]; r];
    for (kb, &bc) in bcols.iter().enumerate() {
        let x0 = bc as usize;
        let b = &bvals[kb * r * c..(kb + 1) * r * c];
        for i in 0..r {
            let row = &b[i * c..i * c + c];
            let mut j = 0;
            while j + lanes <= c {
                for t in 0..k {
                    for l in 0..lanes {
                        accv[i][t][l] =
                            mul_acc(lanes, accv[i][t][l], row[j + l], x[t * xs + x0 + j + l]);
                    }
                }
                j += lanes;
            }
            while j < c {
                for t in 0..k {
                    accs[i][t] = mul_acc(lanes, accs[i][t], row[j], x[t * xs + x0 + j]);
                }
                j += 1;
            }
        }
    }
    for i in 0..r {
        for t in 0..k {
            let v = hsum(&accv[i][t]);
            // The 1-lane engine's tail loop is unreachable; it adds no
            // explicit zero (which could flip a -0.0 sum).
            y[t * ys + y0 + i] += if lanes == 1 { v } else { v + accs[i][t] };
        }
    }
}

/// Simulates the BCSD segment kernel (any `k`) at `lanes` lanes.
#[allow(clippy::too_many_arguments)]
fn sim_bcsd<T: Scalar>(
    lanes: usize,
    b: usize,
    k: usize,
    bvals: &[T],
    bcols: &[Index],
    x: &[T],
    xs: usize,
    y: &mut [T],
    ys: usize,
    y0: usize,
) {
    let groups = b / lanes;
    let tail = b % lanes;
    let mut accv = vec![vec![vec![T::ZERO; lanes]; k]; groups];
    let mut acct = vec![vec![T::ZERO; k]; tail];
    for (kb, &biased) in bcols.iter().enumerate() {
        let v = &bvals[kb * b..(kb + 1) * b];
        let j0 = biased as usize - b;
        for (q, acc) in accv.iter_mut().enumerate() {
            for (t, at) in acc.iter_mut().enumerate() {
                for (l, a) in at.iter_mut().enumerate() {
                    let p = q * lanes + l;
                    *a = mul_acc(lanes, *a, v[p], x[t * xs + j0 + p]);
                }
            }
        }
        for (s, at) in acct.iter_mut().enumerate() {
            let p = groups * lanes + s;
            for (t, a) in at.iter_mut().enumerate() {
                *a = mul_acc(lanes, *a, v[p], x[t * xs + j0 + p]);
            }
        }
    }
    for (q, acc) in accv.iter().enumerate() {
        for (t, at) in acc.iter().enumerate() {
            for (l, &a) in at.iter().enumerate() {
                y[t * ys + y0 + q * lanes + l] += a;
            }
        }
    }
    for (s, at) in acct.iter().enumerate() {
        for (t, &a) in at.iter().enumerate() {
            y[t * ys + y0 + groups * lanes + s] += a;
        }
    }
}

/// Simulates the 1D-VBL dot-run kernel at `lanes` lanes: horizontal sum
/// first, then the tail folds sequentially into the sum.
fn sim_dot<T: Scalar>(lanes: usize, vals: &[T], x: &[T]) -> T {
    let n = vals.len();
    let mut acc = vec![T::ZERO; lanes];
    let mut j = 0;
    while j + lanes <= n {
        for (l, a) in acc.iter_mut().enumerate() {
            *a = mul_acc(lanes, *a, vals[j + l], x[j + l]);
        }
        j += lanes;
    }
    let mut sum = hsum(&acc);
    while j < n {
        sum = mul_acc(lanes, sum, vals[j], x[j]);
        j += 1;
    }
    sum
}

fn assert_bits<T: Scalar>(got: &[T], want: &[T], ctx: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_f64().to_bits(),
            w.to_f64().to_bits(),
            "{ctx}[{i}]: {g:?} vs {w:?}"
        );
    }
}

/// Every dispatchable shape: the 19-shape search space plus the
/// degenerate 1x1 unit kernel (used for CSR profiling).
fn all_shapes() -> Vec<BlockShape> {
    let mut shapes = vec![BlockShape::UNIT];
    shapes.extend(BlockShape::search_space());
    shapes
}

fn gate_bcsr<T: SimdScalar>(imp: KernelImpl) {
    let lanes = lanes_for::<T>(imp);
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xDEAD_BEEF);
        for shape in all_shapes() {
            let (r, c) = (shape.rows(), shape.cols());
            let nb = 1 + rng.index(4);
            let n_cols = c * 6;
            let bvals = rand_vals::<T>(&mut rng, nb * r * c);
            let bcols: Vec<Index> = (0..nb)
                .map(|_| rng.index(n_cols - c + 1) as Index)
                .collect();

            // Single-vector kernel.
            let x = rand_vals::<T>(&mut rng, n_cols);
            let yinit = rand_vals::<T>(&mut rng, r);
            let mut y = yinit.clone();
            let mut ysim = yinit;
            bcsr_row_kernel::<T>(shape, imp)(&bvals, &bcols, &x, &mut y);
            sim_bcsr(lanes, r, c, 1, &bvals, &bcols, &x, 0, &mut ysim, 0, 0);
            assert_bits(&y, &ysim, &format!("bcsr {shape} {imp:?} seed {seed}"));

            // K-tuple kernels.
            for k in [2, 4, 8] {
                let (xs, ys_stride, y0) = (n_cols, r + 2, 1);
                let x = rand_vals::<T>(&mut rng, k * xs);
                let yinit = rand_vals::<T>(&mut rng, k * ys_stride);
                let mut y = yinit.clone();
                let mut ysim = yinit;
                let kern = bcsr_row_multi_kernel::<T>(shape, k, imp).unwrap();
                with_tuples(&x, k, |xi| kern(&bvals, &bcols, xi, &mut y, ys_stride, y0));
                sim_bcsr(
                    lanes, r, c, k, &bvals, &bcols, &x, xs, &mut ysim, ys_stride, y0,
                );
                assert_bits(
                    &y,
                    &ysim,
                    &format!("bcsr {shape} {imp:?} k={k} seed {seed}"),
                );
            }
        }
    }
}

fn gate_bcsd<T: SimdScalar>(imp: KernelImpl) {
    let lanes = lanes_for::<T>(imp);
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed.wrapping_mul(0x9E6C_63D0_876A_3F35) ^ 0x0BAD_F00D);
        for b in 1..=8usize {
            let nb = 1 + rng.index(4);
            let n_cols = b + 10;
            let bvals = rand_vals::<T>(&mut rng, nb * b);
            // Interior blocks only: biased start >= b (true j0 >= 0).
            let bcols: Vec<Index> = (0..nb)
                .map(|_| rng.usize_in(b, n_cols + 1) as Index)
                .collect();

            let x = rand_vals::<T>(&mut rng, n_cols);
            let yinit = rand_vals::<T>(&mut rng, b);
            let mut y = yinit.clone();
            let mut ysim = yinit;
            bcsd_seg_kernel::<T>(b, imp)(&bvals, &bcols, &x, &mut y);
            sim_bcsd(lanes, b, 1, &bvals, &bcols, &x, 0, &mut ysim, 0, 0);
            assert_bits(&y, &ysim, &format!("bcsd b={b} {imp:?} seed {seed}"));

            for k in [2, 4, 8] {
                let (xs, ys_stride, y0) = (n_cols, b + 2, 1);
                let x = rand_vals::<T>(&mut rng, k * xs);
                let yinit = rand_vals::<T>(&mut rng, k * ys_stride);
                let mut y = yinit.clone();
                let mut ysim = yinit;
                let kern = bcsd_seg_multi_kernel::<T>(b, k).unwrap();
                with_tuples(&x, k, |xi| kern(&bvals, &bcols, xi, &mut y, ys_stride, y0));
                sim_bcsd(
                    lanes, b, k, &bvals, &bcols, &x, xs, &mut ysim, ys_stride, y0,
                );
                assert_bits(&y, &ysim, &format!("bcsd b={b} {imp:?} k={k} seed {seed}"));
            }
        }
    }
}

fn gate_dot<T: SimdScalar>(imp: KernelImpl) {
    let lanes = lanes_for::<T>(imp);
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ 0xFEED_FACE);
        for n in 0..17 {
            let vals = rand_vals::<T>(&mut rng, n);
            let x = rand_vals::<T>(&mut rng, n);
            let got = dot_run(&vals, &x, imp);
            let want = sim_dot(lanes, &vals, &x);
            assert_eq!(
                got.to_f64().to_bits(),
                want.to_f64().to_bits(),
                "dot n={n} {imp:?} seed {seed}: {got:?} vs {want:?}"
            );
        }
    }
}

#[test]
fn bcsr_matches_legacy_bitwise_f64() {
    gate_bcsr::<f64>(KernelImpl::Scalar);
    gate_bcsr::<f64>(KernelImpl::Simd);
}

#[test]
fn bcsr_matches_legacy_bitwise_f32() {
    gate_bcsr::<f32>(KernelImpl::Scalar);
    gate_bcsr::<f32>(KernelImpl::Simd);
}

#[test]
fn bcsd_matches_legacy_bitwise_f64() {
    gate_bcsd::<f64>(KernelImpl::Scalar);
    gate_bcsd::<f64>(KernelImpl::Simd);
}

#[test]
fn bcsd_matches_legacy_bitwise_f32() {
    gate_bcsd::<f32>(KernelImpl::Scalar);
    gate_bcsd::<f32>(KernelImpl::Simd);
}

#[test]
fn dot_run_matches_legacy_bitwise() {
    gate_dot::<f64>(KernelImpl::Scalar);
    gate_dot::<f64>(KernelImpl::Simd);
    gate_dot::<f32>(KernelImpl::Scalar);
    gate_dot::<f32>(KernelImpl::Simd);
}
