//! Parametric sparse-matrix generators.
//!
//! Each generator targets one structural archetype from the paper's
//! matrix suite (Table I): dense content, pure randomness, banded CFD
//! operators, FEM matrices with natural `dof x dof` node blocks, finite
//! difference stencils, power-law graphs, circuit matrices, wide linear
//! programming constraint matrices, multi-diagonal operators, and
//! irregular unstructured meshes. The blocked formats' relative behaviour
//! is driven entirely by these structural properties, which is what makes
//! the synthetic suite a faithful stand-in for the originals.
//!
//! All generators are deterministic given a seed.

use core::fmt;
use spmv_core::rng::Rng;
use spmv_core::{Coo, Csr};

/// A generator specification: archetype plus size parameters.
///
/// `build` is deterministic in `(self, seed)`; duplicate coordinates
/// produced by a generator are summed by the COO→CSR conversion, so every
/// output is a valid CSR matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum GenSpec {
    /// Fully dense `n x m` matrix (paper matrix #1).
    Dense {
        /// Rows.
        n: usize,
        /// Columns.
        m: usize,
    },
    /// Uniformly random pattern, ~`nnz_per_row` entries per row (#2).
    Random {
        /// Rows.
        n: usize,
        /// Columns.
        m: usize,
        /// Average nonzeros per row.
        nnz_per_row: usize,
    },
    /// Random rows made of short horizontal dense runs — chemistry /
    /// optimization matrices with dense row blocks (#5, #19, #29).
    ClusteredRandom {
        /// Rows.
        n: usize,
        /// Columns.
        m: usize,
        /// Runs per row.
        runs_per_row: usize,
        /// Elements per run.
        run_len: usize,
    },
    /// 5-point finite-difference stencil on an `nx x ny` grid (#4).
    Stencil2d {
        /// Grid width.
        nx: usize,
        /// Grid height.
        ny: usize,
    },
    /// 7-point finite-difference stencil on an `nx x ny x nz` grid (#23).
    Stencil3d {
        /// Grid width.
        nx: usize,
        /// Grid height.
        ny: usize,
        /// Grid depth.
        nz: usize,
    },
    /// FEM matrix with `dof` unknowns per node: every adjacent node pair
    /// contributes a dense `dof x dof` block (#16, #20–#22, #24–#27).
    FemBlocks {
        /// Mesh nodes (matrix has `nodes * dof` rows).
        nodes: usize,
        /// Degrees of freedom per node (the natural BCSR block size).
        dof: usize,
        /// Neighbours per node besides itself.
        neighbors: usize,
    },
    /// Band matrix: entries within `bandwidth` of the diagonal, each
    /// present with probability `fill` (#3, #10).
    Banded {
        /// Rows and columns.
        n: usize,
        /// Half bandwidth.
        bandwidth: usize,
        /// In-band fill probability.
        fill: f64,
    },
    /// Power-law (web/graph) matrix: skewed degrees, hub columns
    /// (#11, #12).
    PowerLaw {
        /// Rows and columns.
        n: usize,
        /// Average degree.
        avg_deg: usize,
        /// Skew exponent (larger = more skewed).
        alpha: f64,
    },
    /// Circuit matrix: full diagonal plus a few symmetric random
    /// off-diagonals per row (#6, #7, #9, #17).
    Circuit {
        /// Rows and columns.
        n: usize,
        /// Off-diagonal entries per row.
        off_per_row: usize,
    },
    /// Linear-programming constraint matrix: rectangular and wide, rows
    /// made of scattered short runs (#13–#15).
    Lp {
        /// Constraint rows.
        rows: usize,
        /// Variable columns.
        cols: usize,
        /// Runs per row.
        runs_per_row: usize,
        /// Elements per run.
        run_len: usize,
    },
    /// A matrix of full (sub)diagonals at spread offsets — the BCSD-
    /// friendly archetype (#8, #18).
    DiagRuns {
        /// Rows and columns.
        n: usize,
        /// Number of diagonals.
        n_diags: usize,
    },
    /// Irregular local mesh: each node couples to random nearby nodes,
    /// symmetric, without any block structure (#28, #30).
    UnstructuredMesh {
        /// Nodes (= rows = columns).
        nodes: usize,
        /// Average neighbours per node.
        avg_deg: usize,
    },
}

/// Random value in `[0.5, 1.5)` — bounded away from zero so padding zeros
/// stay distinguishable from stored values in tests.
fn val(rng: &mut Rng) -> f64 {
    0.5 + rng.unit()
}

impl GenSpec {
    /// Builds the matrix deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Csr<f64> {
        let mut rng = Rng::new(seed);
        match *self {
            GenSpec::Dense { n, m } => {
                let mut coo = Coo::with_capacity(n, m, n * m);
                for i in 0..n {
                    for j in 0..m {
                        coo.push(i, j, 0.5 + ((i * m + j) % 97) as f64 / 97.0)
                            .expect("in range");
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::Random { n, m, nnz_per_row } => {
                let mut coo = Coo::with_capacity(n, m, n * nnz_per_row);
                for i in 0..n {
                    for _ in 0..nnz_per_row {
                        let j = rng.index(m);
                        coo.push(i, j, val(&mut rng)).expect("in range");
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::ClusteredRandom {
                n,
                m,
                runs_per_row,
                run_len,
            } => {
                let mut coo = Coo::with_capacity(n, m, n * runs_per_row * run_len);
                for i in 0..n {
                    for _ in 0..runs_per_row {
                        let start = rng.index(m);
                        for j in start..(start + run_len).min(m) {
                            coo.push(i, j, val(&mut rng)).expect("in range");
                        }
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::Stencil2d { nx, ny } => {
                let n = nx * ny;
                let mut coo = Coo::with_capacity(n, n, 5 * n);
                let idx = |x: usize, y: usize| y * nx + x;
                for y in 0..ny {
                    for x in 0..nx {
                        let i = idx(x, y);
                        coo.push(i, i, 4.0).expect("in range");
                        if x > 0 {
                            coo.push(i, idx(x - 1, y), -1.0).expect("in range");
                        }
                        if x + 1 < nx {
                            coo.push(i, idx(x + 1, y), -1.0).expect("in range");
                        }
                        if y > 0 {
                            coo.push(i, idx(x, y - 1), -1.0).expect("in range");
                        }
                        if y + 1 < ny {
                            coo.push(i, idx(x, y + 1), -1.0).expect("in range");
                        }
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::Stencil3d { nx, ny, nz } => {
                let n = nx * ny * nz;
                let mut coo = Coo::with_capacity(n, n, 7 * n);
                let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
                for z in 0..nz {
                    for y in 0..ny {
                        for x in 0..nx {
                            let i = idx(x, y, z);
                            coo.push(i, i, 6.0).expect("in range");
                            if x > 0 {
                                coo.push(i, idx(x - 1, y, z), -1.0).expect("in range");
                            }
                            if x + 1 < nx {
                                coo.push(i, idx(x + 1, y, z), -1.0).expect("in range");
                            }
                            if y > 0 {
                                coo.push(i, idx(x, y - 1, z), -1.0).expect("in range");
                            }
                            if y + 1 < ny {
                                coo.push(i, idx(x, y + 1, z), -1.0).expect("in range");
                            }
                            if z > 0 {
                                coo.push(i, idx(x, y, z - 1), -1.0).expect("in range");
                            }
                            if z + 1 < nz {
                                coo.push(i, idx(x, y, z + 1), -1.0).expect("in range");
                            }
                        }
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::FemBlocks {
                nodes,
                dof,
                neighbors,
            } => {
                let n = nodes * dof;
                let mut coo = Coo::with_capacity(n, n, n * dof * (neighbors + 1));
                // Local connectivity window, as in a bandwidth-reduced mesh.
                let window = (2 * neighbors).max(4);
                for u in 0..nodes {
                    let mut adj = vec![u];
                    for _ in 0..neighbors {
                        let lo = u.saturating_sub(window);
                        let hi = (u + window + 1).min(nodes);
                        adj.push(rng.usize_in(lo, hi));
                    }
                    adj.sort_unstable();
                    adj.dedup();
                    for &v in &adj {
                        // Dense dof x dof coupling block between nodes u, v.
                        for di in 0..dof {
                            for dj in 0..dof {
                                coo.push(u * dof + di, v * dof + dj, val(&mut rng))
                                    .expect("in range");
                            }
                        }
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::Banded { n, bandwidth, fill } => {
                let mut coo = Coo::with_capacity(n, n, n * (2 * bandwidth + 1) / 2);
                for i in 0..n {
                    let lo = i.saturating_sub(bandwidth);
                    let hi = (i + bandwidth + 1).min(n);
                    coo.push(i, i, 2.0 + val(&mut rng)).expect("in range");
                    for j in lo..hi {
                        if j != i && rng.chance(fill) {
                            coo.push(i, j, val(&mut rng)).expect("in range");
                        }
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::PowerLaw { n, avg_deg, alpha } => {
                let mut coo = Coo::with_capacity(n, n, n * avg_deg);
                for i in 0..n {
                    // Degree from a heavy-tailed distribution with the
                    // requested mean (clamped for sanity).
                    let u = rng.unit().max(1e-9);
                    let deg = ((avg_deg as f64 * 0.5 * u.powf(-1.0 / alpha)) as usize)
                        .clamp(1, 16 * avg_deg);
                    for _ in 0..deg {
                        // Hub columns: preferential attachment toward low
                        // indices.
                        let t = rng.unit();
                        let j = ((n as f64) * t.powf(alpha)) as usize;
                        coo.push(i, j.min(n - 1), val(&mut rng)).expect("in range");
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::Circuit { n, off_per_row } => {
                let mut coo = Coo::with_capacity(n, n, n * (1 + 2 * off_per_row));
                for i in 0..n {
                    coo.push(i, i, 2.0 + val(&mut rng)).expect("in range");
                    for _ in 0..off_per_row {
                        let j = rng.index(n);
                        // Symmetric stamp, as nodal analysis produces.
                        coo.push(i, j, -val(&mut rng)).expect("in range");
                        coo.push(j, i, -val(&mut rng)).expect("in range");
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::Lp {
                rows,
                cols,
                runs_per_row,
                run_len,
            } => {
                let mut coo = Coo::with_capacity(rows, cols, rows * runs_per_row * run_len);
                for i in 0..rows {
                    for _ in 0..runs_per_row {
                        let start = rng.index(cols);
                        for j in start..(start + run_len).min(cols) {
                            coo.push(i, j, val(&mut rng)).expect("in range");
                        }
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::DiagRuns { n, n_diags } => {
                let mut coo = Coo::with_capacity(n, n, n * n_diags);
                // Offsets spread geometrically on both sides of the main
                // diagonal: 0, +1, -1, +4, -4, +16, ...
                let mut offsets: Vec<i64> = vec![0];
                let mut step = 1i64;
                while offsets.len() < n_diags {
                    offsets.push(step);
                    if offsets.len() < n_diags {
                        offsets.push(-step);
                    }
                    step *= 4;
                }
                for i in 0..n as i64 {
                    for &off in &offsets {
                        let j = i + off;
                        if (0..n as i64).contains(&j) {
                            coo.push(i as usize, j as usize, val(&mut rng))
                                .expect("in range");
                        }
                    }
                }
                Csr::from_coo(&coo)
            }
            GenSpec::UnstructuredMesh { nodes, avg_deg } => {
                let mut coo = Coo::with_capacity(nodes, nodes, nodes * (avg_deg + 1));
                let window = (4 * avg_deg).max(8);
                for u in 0..nodes {
                    coo.push(u, u, 4.0 + val(&mut rng)).expect("in range");
                    for _ in 0..avg_deg {
                        let lo = u.saturating_sub(window);
                        let hi = (u + window + 1).min(nodes);
                        let v = rng.usize_in(lo, hi);
                        if v != u {
                            coo.push(u, v, -val(&mut rng)).expect("in range");
                            coo.push(v, u, -val(&mut rng)).expect("in range");
                        }
                    }
                }
                Csr::from_coo(&coo)
            }
        }
    }

    /// Logical row count of the generated matrix.
    pub fn n_rows(&self) -> usize {
        match *self {
            GenSpec::Dense { n, .. }
            | GenSpec::Random { n, .. }
            | GenSpec::ClusteredRandom { n, .. }
            | GenSpec::Banded { n, .. }
            | GenSpec::PowerLaw { n, .. }
            | GenSpec::Circuit { n, .. }
            | GenSpec::DiagRuns { n, .. } => n,
            GenSpec::Stencil2d { nx, ny } => nx * ny,
            GenSpec::Stencil3d { nx, ny, nz } => nx * ny * nz,
            GenSpec::FemBlocks { nodes, dof, .. } => nodes * dof,
            GenSpec::Lp { rows, .. } => rows,
            GenSpec::UnstructuredMesh { nodes, .. } => nodes,
        }
    }

    /// Short archetype name for reports.
    pub fn archetype(&self) -> &'static str {
        match self {
            GenSpec::Dense { .. } => "dense",
            GenSpec::Random { .. } => "random",
            GenSpec::ClusteredRandom { .. } => "clustered-random",
            GenSpec::Stencil2d { .. } => "stencil-2d",
            GenSpec::Stencil3d { .. } => "stencil-3d",
            GenSpec::FemBlocks { .. } => "fem-blocks",
            GenSpec::Banded { .. } => "banded",
            GenSpec::PowerLaw { .. } => "power-law",
            GenSpec::Circuit { .. } => "circuit",
            GenSpec::Lp { .. } => "lp",
            GenSpec::DiagRuns { .. } => "diag-runs",
            GenSpec::UnstructuredMesh { .. } => "unstructured-mesh",
        }
    }
}

impl fmt::Display for GenSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.archetype())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::MatrixShape;

    fn all_specs() -> Vec<GenSpec> {
        vec![
            GenSpec::Dense { n: 12, m: 9 },
            GenSpec::Random {
                n: 50,
                m: 40,
                nnz_per_row: 5,
            },
            GenSpec::ClusteredRandom {
                n: 40,
                m: 60,
                runs_per_row: 3,
                run_len: 4,
            },
            GenSpec::Stencil2d { nx: 7, ny: 9 },
            GenSpec::Stencil3d {
                nx: 4,
                ny: 5,
                nz: 3,
            },
            GenSpec::FemBlocks {
                nodes: 20,
                dof: 3,
                neighbors: 4,
            },
            GenSpec::Banded {
                n: 60,
                bandwidth: 5,
                fill: 0.5,
            },
            GenSpec::PowerLaw {
                n: 80,
                avg_deg: 4,
                alpha: 1.8,
            },
            GenSpec::Circuit {
                n: 70,
                off_per_row: 3,
            },
            GenSpec::Lp {
                rows: 20,
                cols: 90,
                runs_per_row: 4,
                run_len: 3,
            },
            GenSpec::DiagRuns { n: 50, n_diags: 5 },
            GenSpec::UnstructuredMesh {
                nodes: 60,
                avg_deg: 4,
            },
        ]
    }

    #[test]
    fn all_generators_produce_valid_matrices() {
        for spec in all_specs() {
            let csr = spec.build(42);
            csr.validate()
                .unwrap_or_else(|e| panic!("{spec}: invalid matrix: {e}"));
            assert!(csr.nnz() > 0, "{spec}: empty matrix");
            assert_eq!(csr.n_rows(), spec.n_rows(), "{spec}");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for spec in all_specs() {
            assert_eq!(spec.build(7), spec.build(7), "{spec}");
        }
    }

    #[test]
    fn different_seeds_differ_for_random_specs() {
        let spec = GenSpec::Random {
            n: 50,
            m: 50,
            nnz_per_row: 5,
        };
        assert_ne!(spec.build(1), spec.build(2));
    }

    #[test]
    fn dense_is_actually_dense() {
        let csr = GenSpec::Dense { n: 10, m: 11 }.build(0);
        assert_eq!(csr.nnz(), 110);
    }

    #[test]
    fn stencil2d_interior_rows_have_five_points() {
        let csr = GenSpec::Stencil2d { nx: 5, ny: 5 }.build(0);
        // Center of the grid: full 5-point stencil.
        assert_eq!(csr.row_nnz(12), 5);
        // Corner: 3 points.
        assert_eq!(csr.row_nnz(0), 3);
    }

    #[test]
    fn fem_blocks_contain_full_dof_blocks() {
        use spmv_formats::stats::bcsr_dec_stats;
        use spmv_kernels::BlockShape;
        let csr = GenSpec::FemBlocks {
            nodes: 30,
            dof: 3,
            neighbors: 5,
        }
        .build(9);
        // Every stored entry belongs to a full aligned 3x1 (and 1x3)
        // block — the search-space shapes that tile the natural 3x3
        // node-coupling blocks.
        for shape in [
            BlockShape::new(3, 1).unwrap(),
            BlockShape::new(1, 3).unwrap(),
        ] {
            let st = bcsr_dec_stats(&csr, shape);
            assert_eq!(st.rest_nnz, 0, "FEM generator must emit pure 3x3 blocks");
            assert_eq!(st.stored, csr.nnz());
        }
    }

    #[test]
    fn diag_runs_are_bcsd_friendly() {
        use spmv_formats::stats::bcsd_stats;
        let csr = GenSpec::DiagRuns { n: 64, n_diags: 3 }.build(3);
        let st = bcsd_stats(&csr, 4);
        // Perfect diagonals: padding only at the matrix edges.
        let padding = st.stored - csr.nnz();
        assert!(
            padding <= 3 * 4 * 2,
            "diagonal generator should pad only at edges, got {padding}"
        );
    }

    #[test]
    fn power_law_has_skewed_degrees() {
        let csr = GenSpec::PowerLaw {
            n: 400,
            avg_deg: 5,
            alpha: 1.8,
        }
        .build(11);
        let max_deg = (0..400).map(|i| csr.row_nnz(i)).max().unwrap();
        let min_deg = (0..400).map(|i| csr.row_nnz(i)).min().unwrap();
        assert!(max_deg >= 4 * min_deg.max(1), "degrees not skewed");
    }

    #[test]
    fn circuit_has_full_diagonal() {
        let csr = GenSpec::Circuit {
            n: 50,
            off_per_row: 2,
        }
        .build(5);
        let d = csr.to_dense();
        for i in 0..50 {
            assert!(d.get(i, i) != 0.0, "missing diagonal at {i}");
        }
    }

    #[test]
    fn lp_is_rectangular() {
        let csr = GenSpec::Lp {
            rows: 10,
            cols: 100,
            runs_per_row: 2,
            run_len: 3,
        }
        .build(1);
        assert_eq!(csr.n_rows(), 10);
        assert_eq!(csr.n_cols(), 100);
    }
}
