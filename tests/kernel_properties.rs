//! Property tests on the raw kernel layer: for arbitrary block data, the
//! SIMD kernels agree with the scalar ones, clipped kernels agree with a
//! naive per-element reference, and the accumulate contract holds.
//!
//! Runs on the in-repo seeded harness (`tests/support/prop.rs`), not
//! proptest, so the suite builds and shrinks offline.

use blocked_spmv::kernels::registry::{bcsd_seg_kernel, bcsr_row_kernel, dot_run};
use blocked_spmv::kernels::scalar::{bcsd_segment_clipped, bcsr_block_row_clipped};
use blocked_spmv::kernels::{BlockShape, KernelImpl, BCSD_SIZES};

#[path = "support/prop.rs"]
mod prop;
use prop::Rng;

/// Generator: a BCSR block row for a given shape — block values, sorted
/// disjoint start columns (gaps of at least `c`), and an x vector long
/// enough for every block.
fn bcsr_case(rng: &mut Rng, shape: BlockShape) -> (Vec<f64>, Vec<u32>, Vec<f64>) {
    let c = shape.cols();
    let nb = rng.usize_in(1, 6);
    let vals = rng.f64_vec(nb * shape.elems(), -3.0, 3.0);
    let mut starts = Vec::with_capacity(nb);
    let mut col = 0u32;
    for _ in 0..nb {
        let gap = rng.usize_in(0, 4) as u32;
        starts.push(col + gap);
        col += gap + c as u32;
    }
    let x = rng.f64_vec((col + 4) as usize, -2.0, 2.0);
    (vals, starts, x)
}

#[test]
fn simd_equals_scalar_for_every_bcsr_shape() {
    prop::run(
        "simd_equals_scalar_for_every_bcsr_shape",
        40,
        |rng, _size| {
            let space = BlockShape::search_space();
            let shape = space[rng.index(space.len())];
            let seed = rng.next_u64() % 1000;
            // Simple structured data derived from the seed: block values,
            // disjoint starts with a seed-dependent stride, and a matching x.
            let (r, c) = (shape.rows(), shape.cols());
            let nb = 1 + (seed as usize) % 5;
            let vals: Vec<f64> = (0..nb * r * c)
                .map(|i| ((seed + i as u64) % 17) as f64 * 0.25 - 2.0)
                .collect();
            let starts: Vec<u32> = (0..nb)
                .map(|k| (k * (c + 1 + (seed as usize) % 3)) as u32)
                .collect();
            let x_len = starts.last().map(|&s| s as usize + c).unwrap_or(c) + 2;
            let x: Vec<f64> = (0..x_len)
                .map(|i| ((seed ^ i as u64) % 11) as f64 * 0.5 - 2.0)
                .collect();

            let scalar = bcsr_row_kernel::<f64>(shape, KernelImpl::Scalar);
            let simd = bcsr_row_kernel::<f64>(shape, KernelImpl::Simd);
            let mut ys = vec![0.5f64; r];
            let mut yv = vec![0.5f64; r];
            scalar(&vals, &starts, &x, &mut ys);
            simd(&vals, &starts, &x, &mut yv);
            for (a, b) in ys.iter().zip(&yv) {
                assert!((a - b).abs() < 1e-9, "{shape}: {a} vs {b}");
            }
        },
    );
}

#[test]
fn clipped_bcsr_matches_reference() {
    prop::run("clipped_bcsr_matches_reference", 40, |rng, _size| {
        let shape = BlockShape { r: 2, c: 3 };
        let (vals, starts, x) = bcsr_case(rng, shape);
        let (r, c) = (shape.rows(), shape.cols());
        // Truncate x so the final block clips.
        let x_short = &x[..x.len().saturating_sub(2).max(1)];
        let mut got = vec![0.0; r];
        bcsr_block_row_clipped(r, c, &vals, &starts, x_short, &mut got);
        let mut want = vec![0.0; r];
        for (k, &s) in starts.iter().enumerate() {
            for i in 0..r {
                for j in 0..c {
                    let col = s as usize + j;
                    if col < x_short.len() {
                        want[i] += vals[k * r * c + i * c + j] * x_short[col];
                    }
                }
            }
        }
        for (a, b) in want.iter().zip(&got) {
            assert!((a - b).abs() < 1e-9);
        }
    });
}

#[test]
fn bcsd_simd_equals_scalar() {
    prop::run("bcsd_simd_equals_scalar", 40, |rng, _size| {
        let b = BCSD_SIZES[rng.index(BCSD_SIZES.len())];
        let seed = rng.next_u64() % 500;
        let nb = 1 + (seed as usize) % 4;
        let vals: Vec<f64> = (0..nb * b)
            .map(|i| ((seed + 3 * i as u64) % 13) as f64 * 0.5 - 3.0)
            .collect();
        // Biased start columns (j0 >= 0 for the interior kernel).
        let starts: Vec<u32> = (0..nb).map(|k| (b + k * (b + 1)) as u32).collect();
        let x_len = (*starts.last().unwrap() as usize) + b;
        let x: Vec<f64> = (0..x_len)
            .map(|i| ((seed ^ (7 * i as u64)) % 9) as f64 - 4.0)
            .collect();

        let scalar = bcsd_seg_kernel::<f64>(b, KernelImpl::Scalar);
        let simd = bcsd_seg_kernel::<f64>(b, KernelImpl::Simd);
        let mut ys = vec![1.0f64; b];
        let mut yv = vec![1.0f64; b];
        scalar(&vals, &starts, &x, &mut ys);
        simd(&vals, &starts, &x, &mut yv);
        for (p, q) in ys.iter().zip(&yv) {
            assert!((p - q).abs() < 1e-9, "b={b}");
        }
    });
}

#[test]
fn bcsd_clipped_skips_out_of_matrix_positions() {
    prop::run(
        "bcsd_clipped_skips_out_of_matrix_positions",
        40,
        |rng, _size| {
            let b = BCSD_SIZES[rng.index(BCSD_SIZES.len())];
            let n_cols = rng.usize_in(1, 16);
            // Rejection-sample the diagonal offset until it overlaps the
            // matrix (the proptest version used prop_assume! here).
            let j0 = loop {
                let j0 = rng.usize_in(0, 27) as i64 - 7;
                if j0 + (b as i64) > 0 && j0 < n_cols as i64 {
                    break j0;
                }
            };
            let vals: Vec<f64> = (0..b).map(|t| 1.0 + t as f64).collect();
            let starts = [(j0 + b as i64) as u32];
            let x: Vec<f64> = (0..n_cols).map(|i| 2.0 + i as f64).collect();
            let mut y = vec![0.0; b];
            bcsd_segment_clipped(b, &vals, &starts, &x, &mut y);
            for (t, &yt) in y.iter().enumerate() {
                let col = j0 + t as i64;
                let want = if (0..n_cols as i64).contains(&col) {
                    vals[t] * x[col as usize]
                } else {
                    0.0
                };
                assert!((yt - want).abs() < 1e-12, "t={t}");
            }
        },
    );
}

#[test]
fn dot_run_impls_agree() {
    prop::run("dot_run_impls_agree", 40, |rng, size| {
        let len = rng.usize_in(0, 20 * size);
        let vals = rng.f64_vec(len, -5.0, 5.0);
        let x: Vec<f64> = vals.iter().map(|v| v * 0.5 + 1.0).collect();
        let a = dot_run(&vals, &x, KernelImpl::Scalar);
        let b = dot_run(&vals, &x, KernelImpl::Simd);
        assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
    });
}

#[test]
fn kernels_accumulate() {
    prop::run("kernels_accumulate", 40, |rng, _size| {
        // Calling a kernel twice doubles the contribution on top of the
        // initial contents.
        let space = BlockShape::search_space();
        let shape = space[rng.index(space.len())];
        let (r, c) = (shape.rows(), shape.cols());
        let vals: Vec<f64> = (0..r * c).map(|i| (i + 1) as f64).collect();
        let starts = [0u32];
        let x: Vec<f64> = (0..c).map(|i| 1.0 + i as f64).collect();
        let kern = bcsr_row_kernel::<f64>(shape, KernelImpl::Scalar);
        let mut y1 = vec![3.0f64; r];
        kern(&vals, &starts, &x, &mut y1);
        let mut y2 = vec![3.0f64; r];
        kern(&vals, &starts, &x, &mut y2);
        kern(&vals, &starts, &x, &mut y2);
        for i in 0..r {
            let once = y1[i] - 3.0;
            let twice = y2[i] - 3.0;
            assert!((twice - 2.0 * once).abs() < 1e-9);
        }
    });
}
