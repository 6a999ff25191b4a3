//! The synthetic 30-matrix evaluation suite (stand-in for Table I).
//!
//! One entry per paper matrix, keeping the paper's id, name, and
//! application domain, with a generator chosen to match the original's
//! structural archetype (see the module docs of
//! [`generators`](crate::generators) and DESIGN.md §2 for the mapping
//! rationale). Sizes are scaled down so the full sweep runs on a laptop;
//! the `scale` parameter grows every matrix proportionally
//! (`--scale 8` and up approaches the paper's "nothing fits in cache"
//! regime on typical machines).

use crate::generators::GenSpec;
use spmv_core::Csr;

/// Geometry classification from Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Geometry {
    /// The two special-purpose matrices (#1 dense, #2 random), excluded
    /// from the win counts of Table II.
    Special,
    /// Problems without an underlying 2D/3D geometry (#3–#16).
    NonGeometric,
    /// Problems with a 2D/3D geometry (#17–#30).
    Geometric,
}

/// One suite entry: paper metadata plus the stand-in generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteMatrix {
    /// Paper id, 1..=30.
    pub id: usize,
    /// Paper matrix name (e.g. `"audikw_1"`).
    pub name: &'static str,
    /// Application domain from Table I.
    pub domain: &'static str,
    /// Geometry class.
    pub geometry: Geometry,
    /// The generator standing in for the original matrix.
    pub spec: GenSpec,
}

impl SuiteMatrix {
    /// Builds the matrix; deterministic in `(suite entry, seed)`.
    pub fn build(&self, seed: u64) -> Csr<f64> {
        self.spec
            .build(seed ^ (self.id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Scales a linear dimension.
fn s(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(4)
}

/// Scales a 2-D side length (so element counts scale linearly).
fn s2(base: usize, scale: f64) -> usize {
    ((base as f64 * scale.sqrt()).round() as usize).max(4)
}

/// Scales a 3-D side length.
fn s3(base: usize, scale: f64) -> usize {
    ((base as f64 * scale.cbrt()).round() as usize).max(3)
}

/// Builds the 30-entry suite at the given size scale (`1.0` = default
/// laptop-sized matrices, tens of thousands of rows each).
pub fn suite(scale: f64) -> Vec<SuiteMatrix> {
    use GenSpec::*;
    use Geometry::*;
    let e = |id, name, domain, geometry, spec| SuiteMatrix {
        id,
        name,
        domain,
        geometry,
        spec,
    };
    vec![
        e(
            1,
            "dense",
            "special",
            Special,
            Dense {
                n: s2(180, scale),
                m: s2(180, scale),
            },
        ),
        e(
            2,
            "random",
            "special",
            Special,
            Random {
                n: s(30_000, scale),
                m: s(30_000, scale),
                nnz_per_row: 8,
            },
        ),
        e(
            3,
            "cfd2",
            "CFD",
            NonGeometric,
            Banded {
                n: s(22_000, scale),
                bandwidth: 40,
                fill: 0.30,
            },
        ),
        e(
            4,
            "parabolic_fem",
            "CFD",
            NonGeometric,
            Stencil2d {
                nx: s2(170, scale),
                ny: s2(170, scale),
            },
        ),
        e(
            5,
            "Ga41As41H72",
            "Chemistry",
            NonGeometric,
            ClusteredRandom {
                n: s(8_000, scale),
                m: s(8_000, scale),
                runs_per_row: 9,
                run_len: 4,
            },
        ),
        e(
            6,
            "ASIC_680k",
            "Circuit",
            NonGeometric,
            Circuit {
                n: s(30_000, scale),
                off_per_row: 2,
            },
        ),
        e(
            7,
            "G3_circuit",
            "Circuit",
            NonGeometric,
            Circuit {
                n: s(50_000, scale),
                off_per_row: 1,
            },
        ),
        e(
            8,
            "Hamrle3",
            "Circuit",
            NonGeometric,
            DiagRuns {
                n: s(40_000, scale),
                n_diags: 4,
            },
        ),
        e(
            9,
            "rajat31",
            "Circuit",
            NonGeometric,
            Circuit {
                n: s(55_000, scale),
                off_per_row: 2,
            },
        ),
        e(
            10,
            "cage15",
            "Graph",
            NonGeometric,
            Banded {
                n: s(30_000, scale),
                bandwidth: 30,
                fill: 0.30,
            },
        ),
        e(
            11,
            "wb-edu",
            "Graph",
            NonGeometric,
            PowerLaw {
                n: s(50_000, scale),
                avg_deg: 6,
                alpha: 1.9,
            },
        ),
        e(
            12,
            "wikipedia",
            "Graph",
            NonGeometric,
            PowerLaw {
                n: s(35_000, scale),
                avg_deg: 12,
                alpha: 1.6,
            },
        ),
        e(
            13,
            "degme",
            "Lin. Prog.",
            NonGeometric,
            Lp {
                rows: s(8_000, scale),
                cols: s(12_000, scale),
                runs_per_row: 3,
                run_len: 4,
            },
        ),
        e(
            14,
            "rail4284",
            "Lin. Prog.",
            NonGeometric,
            Lp {
                rows: s(1_500, scale),
                cols: s(50_000, scale),
                runs_per_row: 40,
                run_len: 8,
            },
        ),
        e(
            15,
            "spal_004",
            "Lin. Prog.",
            NonGeometric,
            Lp {
                rows: s(4_000, scale),
                cols: s(32_000, scale),
                runs_per_row: 35,
                run_len: 4,
            },
        ),
        e(
            16,
            "bone010",
            "Other",
            NonGeometric,
            FemBlocks {
                nodes: s(10_000, scale),
                dof: 3,
                neighbors: 11,
            },
        ),
        e(
            17,
            "kkt_power",
            "Power",
            Geometric,
            Circuit {
                n: s(55_000, scale),
                off_per_row: 1,
            },
        ),
        e(
            18,
            "largebasis",
            "Opt.",
            Geometric,
            DiagRuns {
                n: s(30_000, scale),
                n_diags: 12,
            },
        ),
        e(
            19,
            "TSOPF_RS",
            "Opt.",
            Geometric,
            ClusteredRandom {
                n: s(1_500, scale),
                m: s(1_500, scale),
                runs_per_row: 40,
                run_len: 8,
            },
        ),
        e(
            20,
            "af_shell10",
            "Struct.",
            Geometric,
            FemBlocks {
                nodes: s(12_000, scale),
                dof: 3,
                neighbors: 5,
            },
        ),
        e(
            21,
            "audikw_1",
            "Struct.",
            Geometric,
            FemBlocks {
                nodes: s(8_000, scale),
                dof: 3,
                neighbors: 12,
            },
        ),
        e(
            22,
            "F1",
            "Struct.",
            Geometric,
            FemBlocks {
                nodes: s(8_000, scale),
                dof: 3,
                neighbors: 13,
            },
        ),
        e(
            23,
            "fdiff",
            "Struct.",
            Geometric,
            Stencil3d {
                nx: s3(32, scale),
                ny: s3(32, scale),
                nz: s3(32, scale),
            },
        ),
        e(
            24,
            "gearbox",
            "Struct.",
            Geometric,
            FemBlocks {
                nodes: s(6_000, scale),
                dof: 3,
                neighbors: 9,
            },
        ),
        e(
            25,
            "inline_1",
            "Struct.",
            Geometric,
            FemBlocks {
                nodes: s(10_000, scale),
                dof: 3,
                neighbors: 11,
            },
        ),
        e(
            26,
            "ldoor",
            "Struct.",
            Geometric,
            FemBlocks {
                nodes: s(12_000, scale),
                dof: 3,
                neighbors: 7,
            },
        ),
        e(
            27,
            "pwtk",
            "Struct.",
            Geometric,
            FemBlocks {
                nodes: s(7_000, scale),
                dof: 3,
                neighbors: 8,
            },
        ),
        e(
            28,
            "thermal2",
            "Other",
            Geometric,
            UnstructuredMesh {
                nodes: s(45_000, scale),
                avg_deg: 3,
            },
        ),
        e(
            29,
            "nd24k",
            "Other",
            Geometric,
            ClusteredRandom {
                n: s(3_000, scale),
                m: s(3_000, scale),
                runs_per_row: 25,
                run_len: 8,
            },
        ),
        e(
            30,
            "stomach",
            "Other",
            Geometric,
            UnstructuredMesh {
                nodes: s(18_000, scale),
                avg_deg: 6,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::{MatrixShape, SpMv};

    #[test]
    fn suite_has_30_entries_with_paper_ids() {
        let s = suite(1.0);
        assert_eq!(s.len(), 30);
        for (k, m) in s.iter().enumerate() {
            assert_eq!(m.id, k + 1);
        }
    }

    #[test]
    fn geometry_classes_match_table_one() {
        let s = suite(1.0);
        assert!(s[..2].iter().all(|m| m.geometry == Geometry::Special));
        assert!(s[2..16]
            .iter()
            .all(|m| m.geometry == Geometry::NonGeometric));
        assert!(s[16..].iter().all(|m| m.geometry == Geometry::Geometric));
    }

    #[test]
    fn all_entries_build_valid_matrices_at_tiny_scale() {
        for m in suite(0.02) {
            let csr = m.build(1);
            csr.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
            assert!(csr.nnz() > 0, "{} is empty", m.name);
        }
    }

    #[test]
    fn scale_grows_matrices() {
        let small = suite(0.05)[3].build(1);
        let large = suite(0.2)[3].build(1);
        assert!(large.nnz() > 2 * small.nnz());
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let a = suite(0.05)[10].build(9);
        let b = suite(0.05)[10].build(9);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_entries_use_distinct_streams() {
        // Same spec family, different ids → different matrices.
        let s = suite(0.05);
        let a = s[5].build(9); // ASIC_680k (circuit)
        let b = s[8].build(9); // rajat31 (circuit)
        assert!(a.n_rows() != b.n_rows() || a != b);
    }

    #[test]
    fn working_sets_exceed_typical_l1_at_default_scale() {
        // The paper requires matrices that do not fit in cache; at the
        // default scale every suite member must at least exceed a 64 KiB
        // L1 cache.
        for m in suite(1.0).iter().take(4) {
            let csr = m.build(1);
            assert!(
                csr.working_set_bytes() > 64 * 1024,
                "{} too small: {} bytes",
                m.name,
                csr.working_set_bytes()
            );
        }
    }
}
