//! Deterministic structural checks of the paper's qualitative claims —
//! the statements of §I–§III that depend only on matrix structure, not
//! on timing, so they must hold exactly on every machine.

use blocked_spmv::core::{Coo, Csr, MatrixShape, SpMv};
use blocked_spmv::formats::{Bcsr, BcsrDec, Vbl};
use blocked_spmv::gen::{suite, GenSpec};
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::Config;

/// §II: "the col_ind structure of CSR … comprises almost half of the
/// working set of the algorithm" — exactly true in single precision
/// (4-byte values, 4-byte indices).
#[test]
fn csr_col_ind_is_almost_half_the_working_set_in_sp() {
    let csr64 = GenSpec::Random {
        n: 2_000,
        m: 2_000,
        nnz_per_row: 8,
    }
    .build(1);
    let csr32 = csr64.cast::<f32>();
    let col_bytes = csr32.nnz() * 4;
    let frac = col_bytes as f64 / csr32.matrix_bytes() as f64;
    assert!((0.40..0.52).contains(&frac), "sp col_ind fraction = {frac}");
    // In double precision it is a third.
    let frac64 = (csr64.nnz() * 4) as f64 / csr64.matrix_bytes() as f64;
    assert!(
        (0.28..0.37).contains(&frac64),
        "dp col_ind fraction = {frac64}"
    );
}

/// §III: "blocking methods maintain a single index for each block …
/// therefore the col_ind structure … can be significantly reduced" — on
/// a perfectly blocked matrix, BCSR 2x2 stores one index per four values
/// and its working set undercuts CSR's.
#[test]
fn blocking_shrinks_the_working_set_on_block_matrices() {
    let csr = GenSpec::FemBlocks {
        nodes: 2_000,
        dof: 2,
        neighbors: 6,
    }
    .build(2);
    let bcsr = Bcsr::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
    assert_eq!(bcsr.padding(), 0, "FEM dof=2 must tile 2x2 exactly");
    assert!(bcsr.matrix_bytes() < csr.matrix_bytes());
    // Index bytes per stored value: 4 for CSR, ~1 for 2x2 BCSR.
    let csr_idx_per_val = 4.0;
    let bcsr_idx_per_val =
        (bcsr.matrix_bytes() - bcsr.nnz_stored() * 8) as f64 / bcsr.nnz_stored() as f64;
    assert!(
        bcsr_idx_per_val < 0.4 * csr_idx_per_val,
        "BCSR index overhead per value = {bcsr_idx_per_val}"
    );
}

/// §III: "if the nonzero elements pattern … is rather irregular, these
/// methods lead to excessive padding, overwhelming any benefit" — on a
/// scattered matrix the padded BCSR working set exceeds CSR's.
#[test]
fn padding_overwhelms_blocking_on_scatter() {
    let csr = GenSpec::Random {
        n: 2_000,
        m: 2_000,
        nnz_per_row: 3,
    }
    .build(3);
    let bcsr = Bcsr::from_csr(&csr, BlockShape::new(2, 4).unwrap(), KernelImpl::Scalar);
    assert!(
        bcsr.padding() > 3 * csr.nnz(),
        "scatter should pad heavily: padding {} vs nnz {}",
        bcsr.padding(),
        csr.nnz()
    );
    assert!(bcsr.matrix_bytes() > csr.matrix_bytes());
    // While the decomposed variant never stores padding and stays close
    // to CSR (it pays only the extra pointer array).
    let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 4).unwrap(), KernelImpl::Scalar);
    assert!(dec.matrix_bytes() < bcsr.matrix_bytes());
}

/// §V-A: "1D-VBL achieved the best speedup for the dense matrix …
/// since it can construct the largest blocks."
#[test]
fn vbl_builds_maximal_blocks_on_dense() {
    let csr = GenSpec::Dense { n: 300, m: 300 }.build(0);
    let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
    // Rows are 300 long: one 255-chunk plus one 45-chunk.
    assert_eq!(vbl.n_blocks(), 600);
    assert!(vbl.avg_block_len() > 100.0);
    // And its working set beats CSR's by nearly the whole col_ind array.
    assert!((vbl.matrix_bytes() as f64) < 0.72 * csr.matrix_bytes() as f64);
}

/// §IV: "the MEMCOMP model also treats CSR as a degenerate blocking
/// method with 1x1 blocks and nb = nnz".
#[test]
fn csr_is_the_degenerate_one_by_one_config() {
    let csr = GenSpec::Stencil2d { nx: 20, ny: 20 }.build(0);
    let stats = Config::CSR.substats(&csr);
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].nb, csr.nnz());
}

/// §III (decomposed methods): "the remainder CSR matrix will have very
/// short rows" — on a half-blocked matrix the remainder's mean row
/// length must be well below the original's.
#[test]
fn decomposed_remainder_has_short_rows() {
    // Mix: full 2x2 blocks plus one scattered entry per row.
    let blocks = GenSpec::FemBlocks {
        nodes: 500,
        dof: 2,
        neighbors: 5,
    }
    .build(4);
    let mut coo = Coo::new(1000, 1000);
    for (i, j, v) in blocks.iter() {
        coo.push(i, j, v).unwrap();
    }
    for i in 0..1000 {
        coo.push(i, (i * 331 + 17) % 1000, 0.5).unwrap();
    }
    let csr = Csr::from_coo(&coo);
    let dec = BcsrDec::from_csr(&csr, BlockShape::new(2, 2).unwrap(), KernelImpl::Scalar);
    let rest = dec.rest();
    let mean_rest_row = rest.nnz() as f64 / rest.n_rows() as f64;
    let mean_full_row = csr.nnz() as f64 / csr.n_rows() as f64;
    assert!(
        mean_rest_row < 0.25 * mean_full_row,
        "remainder rows should be short: {mean_rest_row} vs {mean_full_row}"
    );
}

/// Table I's scale contract: the working set grows near-linearly with
/// `--scale` for the sparse entries.
#[test]
fn suite_scale_is_roughly_linear() {
    let small = suite(0.05);
    let large = suite(0.20);
    for id in [3usize, 9, 21, 28] {
        let a = small[id - 1].build(1).working_set_bytes() as f64;
        let b = large[id - 1].build(1).working_set_bytes() as f64;
        let ratio = b / a;
        assert!(
            (2.0..8.0).contains(&ratio),
            "matrix #{id}: 4x scale gave ratio {ratio}"
        );
    }
}
