//! Degenerate-shape and boundary coverage for every format, single- and
//! multi-vector: empty matrices, single-row / single-column matrices, a
//! fully dense row, the 1D-VBL `u8` run-length boundary (a dense row
//! wider than 255 columns must split into multiple runs), rows whose
//! column gaps pass 255, rows whose column gaps pass `u16::MAX`, and
//! unchecked rows that repeat a column.

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv, SpMvMulti};
use blocked_spmv::formats::{Bcsd, BcsdDec, Bcsr, BcsrDec, Vbl};
use blocked_spmv::kernels::{BlockShape, KernelImpl, BCSD_SIZES};
use blocked_spmv::model::Config;

const K: usize = 4;

/// Checks every format built from `coo` against the triplet reference,
/// for k = 1 and k = 4, both kernel implementations.
fn check_all(coo: &Coo<f64>, what: &str) {
    let (n, m) = (coo.n_rows(), coo.n_cols());
    let csr = Csr::from_coo(coo);
    let x: Vec<f64> = (0..m * K).map(|i| 1.0 + (i % 7) as f64 * 0.5).collect();

    // Reference straight off CSR rows in plain order.
    let mut yref = vec![0.0; n * K];
    for t in 0..K {
        for i in 0..n {
            let (cols, vals) = csr.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                yref[t * n + i] += v * x[t * m + c as usize];
            }
        }
    }

    let shape = BlockShape::new(2, 2).unwrap();
    for imp in KernelImpl::ALL {
        let formats: Vec<(String, Box<dyn SpMvMulti<f64>>)> = vec![
            ("csr".to_string(), Box::new(csr.clone())),
            (
                format!("bcsr {imp}"),
                Box::new(Bcsr::from_csr(&csr, shape, imp)),
            ),
            (
                format!("bcsr-dec {imp}"),
                Box::new(BcsrDec::from_csr(&csr, shape, imp)),
            ),
            (
                format!("bcsd {imp}"),
                Box::new(Bcsd::from_csr(&csr, 4, imp)),
            ),
            (
                format!("bcsd-dec {imp}"),
                Box::new(BcsdDec::from_csr(&csr, 4, imp)),
            ),
            (format!("vbl {imp}"), Box::new(Vbl::from_csr(&csr, imp))),
        ];
        for (label, mat) in &formats {
            assert_eq!((mat.n_rows(), mat.n_cols()), (n, m), "{what} {label}");
            let single = mat.spmv(&x[..m]);
            let multi = mat.spmv_multi(&x, K);
            for i in 0..n {
                assert!(
                    (single[i] - yref[i]).abs() <= 1e-9 * (1.0 + yref[i].abs()),
                    "{what} {label}: row {i}"
                );
            }
            for (idx, g) in multi.iter().enumerate() {
                assert!(
                    (g - yref[idx]).abs() <= 1e-9 * (1.0 + yref[idx].abs()),
                    "{what} {label}: multi entry {idx}"
                );
            }
        }
    }
}

#[test]
fn empty_matrix_all_nnz_zero() {
    check_all(&Coo::new(5, 7), "5x7 no entries");
}

#[test]
fn single_row_matrix() {
    let mut coo = Coo::new(1, 23);
    for j in (0..23).step_by(3) {
        coo.push(0, j, 1.0 + j as f64).unwrap();
    }
    check_all(&coo, "1x23");
}

#[test]
fn single_column_matrix() {
    let mut coo = Coo::new(23, 1);
    for i in (0..23).step_by(2) {
        coo.push(i, 0, 1.0 + i as f64).unwrap();
    }
    check_all(&coo, "23x1");
}

#[test]
fn one_by_one() {
    let mut coo = Coo::new(1, 1);
    coo.push(0, 0, 3.5).unwrap();
    check_all(&coo, "1x1");
}

#[test]
fn fully_dense_row_among_sparse_rows() {
    let mut coo = Coo::new(9, 40);
    for j in 0..40 {
        coo.push(4, j, 0.25 * (j + 1) as f64).unwrap();
    }
    for i in 0..9 {
        coo.push(i, (i * 5) % 40, 1.0).unwrap();
    }
    check_all(&coo, "dense row 4");
}

#[test]
fn vbl_run_longer_than_255_columns_splits() {
    // One 300-wide dense row: 1D-VBL stores run lengths in u8, so this
    // must split into ceil(300/255) = 2 runs and still multiply exactly.
    let mut coo = Coo::new(3, 300);
    for j in 0..300 {
        coo.push(1, j, 1.0 + (j % 11) as f64).unwrap();
    }
    coo.push(0, 299, 2.0).unwrap();
    coo.push(2, 0, 3.0).unwrap();
    let csr = Csr::from_coo(&coo);
    for imp in KernelImpl::ALL {
        let vbl = Vbl::from_csr(&csr, imp);
        assert!(
            vbl.n_blocks() >= 3,
            "300-wide run must split at the u8 boundary ({imp})"
        );
    }
    check_all(&coo, "vbl >255 run");
}

#[test]
fn column_gaps_past_u16_max_multiply_in_every_format() {
    // One row whose column gaps range from 1 to past u16::MAX, in a
    // column space no two-byte index could address: every format must
    // still agree.
    let n_cols = 132_001;
    let cols = [0usize, 1, 2, 3, 4, 100, 400, 66_000, 132_000];
    let mut coo = Coo::new(2, n_cols);
    for (jx, &j) in cols.iter().enumerate() {
        coo.push(0, j, 1.0 + jx as f64).unwrap();
    }
    coo.push(1, 7, 2.5).unwrap();
    check_all(&coo, "u32 column space");
}

#[test]
fn rows_with_gaps_past_255() {
    // Every row jumps >= 256 columns between nonzeros: no gap fits a
    // byte, and every format must still agree.
    let mut coo = Coo::new(5, 600);
    for i in 0..5 {
        coo.push(i, i, 1.0 + i as f64).unwrap();
        coo.push(i, i + 590, 2.0 + i as f64).unwrap();
    }
    check_all(&coo, ">=256-gap rows");
}

#[test]
fn multi_with_zero_rows_or_cols() {
    // Degenerate extents: the only observable effect is a zeroed output.
    let wide: Csr<f64> = Csr::from_coo(&Coo::new(0, 6));
    assert!(wide.spmv_multi(&[1.0; 6 * K], K).is_empty());
    let tall: Csr<f64> = Csr::from_coo(&Coo::new(6, 0));
    let y = tall.spmv_multi(&[], K);
    assert_eq!(y, vec![0.0; 6 * K]);
}

#[test]
fn repeated_columns_add_up_in_every_configuration() {
    // `Csr::from_raw_unchecked` keeps a row that names a column twice,
    // and CSR adds both products. Every blocked build must add the two
    // entries into their slot too. Small integers keep every sum exact.
    let cases = [
        // Row 0 holds columns [0, 0, 1]: y0 = 1 + 1 + 2 = 4 for
        // x = [1, 2, 3, 4], where keeping only the last entry gives 3.
        Csr::from_raw_unchecked(2, 4, vec![0, 3, 3], vec![0, 0, 1], vec![1.0; 3]),
        // Unsorted rows with repeats that are not adjacent. Row 4's two
        // entries in column 0 fill a 1x2 and a b = 2 block's entry count,
        // so the decomposed builds keep those blocks as full.
        Csr::from_raw_unchecked(
            5,
            7,
            vec![0, 4, 7, 7, 11, 13],
            vec![3, 1, 3, 0, 2, 5, 2, 6, 5, 6, 4, 0, 0],
            vec![
                2.0, -1.0, 3.0, 1.0, 1.0, 2.0, -3.0, 1.0, 1.0, 2.0, -2.0, 4.0, 5.0,
            ],
        ),
    ];
    for (case, csr) in cases.into_iter().enumerate() {
        let csr = csr.unwrap();
        let m = csr.n_cols();
        let x: Vec<f64> = (0..m * K).map(|i| (i + 1) as f64).collect();
        let (want, want_multi) = (csr.spmv(&x[..m]), csr.spmv_multi(&x, K));
        for config in Config::enumerate_extended(true) {
            let built = config.build(&csr);
            assert_eq!(built.spmv(&x[..m]), want, "case {case} {config}");
            assert_eq!(
                built.spmv_multi(&x, K),
                want_multi,
                "case {case} {config} k={K}"
            );
        }
        // Padding is the stored slots no entry reached: two entries that
        // share a slot fill it once, so padding never passes the stored
        // count and the fill never passes 1.
        let imp = KernelImpl::Scalar;
        for shape in BlockShape::search_space() {
            let bcsr = Bcsr::from_csr(&csr, shape, imp);
            let dec = BcsrDec::from_csr(&csr, shape, imp);
            for (what, b) in [("bcsr", &bcsr), ("bcsr-dec", dec.main())] {
                assert!(b.padding() <= b.nnz_stored(), "case {case} {what} {shape}");
                assert!(b.fill_ratio() <= 1.0, "case {case} {what} {shape}");
            }
        }
        for b in BCSD_SIZES {
            let bcsd = Bcsd::from_csr(&csr, b, imp);
            let dec = BcsdDec::from_csr(&csr, b, imp);
            for (what, d) in [("bcsd", &bcsd), ("bcsd-dec", dec.main())] {
                assert!(d.padding() <= d.nnz_stored(), "case {case} {what} b={b}");
                assert!(d.fill_ratio() <= 1.0, "case {case} {what} b={b}");
            }
        }
        if case == 0 {
            // Row 0's three entries reach both slots of one 1x2 block.
            let bcsr = Bcsr::from_csr(&csr, BlockShape::new(1, 2).unwrap(), imp);
            assert_eq!((bcsr.n_blocks(), bcsr.nnz_orig()), (1, 3));
            assert_eq!((bcsr.padding(), bcsr.fill_ratio()), (0, 1.0));
        }
    }
}
