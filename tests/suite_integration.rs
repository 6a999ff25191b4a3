//! Integration tests over the synthetic suite: every suite entry works
//! with every format family, survives a MatrixMarket round-trip, and the
//! experiment drivers produce structurally valid paper tables.

use blocked_spmv::core::{MatrixShape, SpMv};
use blocked_spmv::formats::{Bcsd, Bcsr, BcsrDec, Vbl};
use blocked_spmv::gen::{matrixmarket, random_vector, suite};
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use spmv_bench::experiments::{table1, wins};
use spmv_bench::ExpOpts;

fn tiny_opts(ids: Option<Vec<usize>>) -> ExpOpts {
    ExpOpts {
        scale: 0.02,
        seed: 11,
        min_time: 5e-5,
        batches: 1,
        matrices: ids,
        calib_bytes: Some(1 << 16),
    }
}

#[test]
fn every_suite_entry_runs_every_format_family() {
    let shape = BlockShape::new(2, 2).unwrap();
    for entry in suite(0.02) {
        let csr = entry.build(3);
        let x: Vec<f64> = random_vector(csr.n_cols(), 1);
        let want = csr.spmv(&x);
        let check = |got: Vec<f64>, what: &str| {
            for (a, g) in want.iter().zip(&got) {
                assert!(
                    (a - g).abs() < 1e-6 * (1.0 + a.abs()),
                    "{}: {what} diverged",
                    entry.name
                );
            }
        };
        check(
            Bcsr::from_csr(&csr, shape, KernelImpl::Simd).spmv(&x),
            "BCSR",
        );
        check(
            BcsrDec::from_csr(&csr, shape, KernelImpl::Scalar).spmv(&x),
            "BCSR-DEC",
        );
        check(Bcsd::from_csr(&csr, 4, KernelImpl::Simd).spmv(&x), "BCSD");
        check(Vbl::from_csr(&csr, KernelImpl::Scalar).spmv(&x), "1D-VBL");
    }
}

#[test]
fn suite_matrices_roundtrip_through_matrixmarket() {
    let entry = &suite(0.02)[20]; // audikw_1-like FEM entry
    let csr = entry.build(9);
    let mut buf = Vec::new();
    matrixmarket::write(&csr, &mut buf).unwrap();
    let back: blocked_spmv::core::Csr<f64> = matrixmarket::read(&buf[..]).unwrap();
    assert_eq!(csr, back);
}

#[test]
fn table1_rows_are_structurally_sound() {
    let rows = table1::run(&tiny_opts(None));
    assert_eq!(rows.len(), 30);
    // Geometry split mirrors Table I: 2 specials, 14 non-geometric,
    // 14 geometric.
    use blocked_spmv::gen::Geometry;
    assert_eq!(
        rows.iter()
            .filter(|r| r.geometry == Geometry::Special)
            .count(),
        2
    );
    assert_eq!(
        rows.iter()
            .filter(|r| r.geometry == Geometry::NonGeometric)
            .count(),
        14
    );
    assert_eq!(
        rows.iter()
            .filter(|r| r.geometry == Geometry::Geometric)
            .count(),
        14
    );
}

#[test]
fn wins_sweep_produces_coherent_tables() {
    // A 3-matrix sweep exercising the full Table II/III pipeline: a FEM
    // matrix (blocking-friendly), a diagonal matrix (BCSD-friendly), and
    // a power-law graph (CSR-friendly).
    let res = wins::run(&tiny_opts(Some(vec![12, 18, 21])));
    assert_eq!(res.outcomes.len(), 3);
    let counts = res.win_counts();
    for col in 0..4 {
        let total: usize = counts.values().map(|c| c[col]).sum();
        assert_eq!(total, 3);
    }
    let t2 = wins::render_table2(&res).to_string();
    assert!(t2.contains("BCSR") && t2.contains("1D-VBL"));
    let t3 = wins::render_table3(&res).to_string();
    assert!(t3.contains("Average"));
    // Speedup sanity: every measured speedup is positive and finite.
    for o in &res.outcomes {
        for (_, s) in &o.speedups {
            assert!(s.min.is_finite() && s.min > 0.0);
            assert!(s.max >= s.avg && s.avg >= s.min);
        }
    }
}

#[test]
fn blocking_friendly_matrices_have_high_fill() {
    // The structural promise behind the suite design: FEM entries tile
    // with near-perfect 1x3 fill, diagonal entries with near-perfect
    // b=4 BCSD fill, graphs with poor fill everywhere.
    use blocked_spmv::formats::{bcsd_stats, bcsr_stats};
    let s = suite(0.05);
    let fem = s[20].build(1); // audikw_1-like
    let diag = s[17].build(1); // largebasis-like
    let graph = s[11].build(1); // wikipedia-like

    let fem_fill =
        fem.nnz() as f64 / bcsr_stats(&fem, BlockShape::new(1, 3).unwrap()).stored as f64;
    assert!(fem_fill > 0.99, "FEM 1x3 fill = {fem_fill}");

    let diag_fill = diag.nnz() as f64 / bcsd_stats(&diag, 4).stored as f64;
    assert!(diag_fill > 0.95, "diag b=4 fill = {diag_fill}");

    let graph_fill =
        graph.nnz() as f64 / bcsr_stats(&graph, BlockShape::new(2, 2).unwrap()).stored as f64;
    assert!(graph_fill < 0.6, "graph 2x2 fill = {graph_fill}");
}
