//! Bit identity of the fixed-size block builds: FNV-1a checksums over
//! every BCSR shape, every BCSD size and both decomposed forms.
//!
//! The inputs are the 200-seed structured corpus and suite #1..#30 at
//! scale 0.02, seed 7, all in f64. For each build a row hashes the main
//! part's block count, the CSR rest's nnz (decomposed forms only),
//! `nnz_stored`, `matrix_bytes`, and the bits of `spmv` and
//! `spmv_multi` (k = 3) on `random_vector` inputs. There is one row per
//! (format, kernel implementation). The SIMD rows run on x86_64 only,
//! where SSE2 is always on; elsewhere `KernelImpl::Simd` may take other
//! code paths.
//!
//! `differential_equivalence.rs` checks these products against a
//! reference within a tolerance; this suite pins the built layouts and
//! the absolute output bits, so a change to a constructor or a kernel
//! that moves any stored value or any product bit shows up here.
//!
//! The expected values were recorded on the four separate BCSR, BCSD,
//! BCSR-DEC and BCSD-DEC construction loops that the shared block gather
//! replaced. Updating them is only right for an intended change to a
//! built layout or to a kernel's accumulation order.

#[path = "support/corpus.rs"]
mod corpus;
#[path = "support/fnv.rs"]
mod fnv;

use blocked_spmv::core::{Csr, MatrixShape, SpMvMulti};
use blocked_spmv::formats::{Bcsd, BcsdDec, Bcsr, BcsrDec};
use blocked_spmv::gen::{random_vector, suite};
use blocked_spmv::kernels::{BlockShape, KernelImpl, BCSD_SIZES};
use fnv::{check, Fnv};

/// Vectors per `spmv_multi` call: one 2-tuple chunk and one single
/// vector, so both multi-vector paths run.
const K: usize = 3;

/// One input matrix with its vectors.
struct Input {
    csr: Csr<f64>,
    x: Vec<f64>,
    xk: Vec<f64>,
}

fn inputs() -> Vec<Input> {
    let corpus = (0..corpus::SEEDS).map(|seed| corpus::structured_case(seed).csr());
    let suite = suite(0.02).into_iter().map(|entry| entry.build(7));
    corpus
        .chain(suite)
        .map(|csr| {
            let m = csr.n_cols();
            Input {
                x: random_vector(m, 1),
                xk: random_vector(m * K, 2),
                csr,
            }
        })
        .collect()
}

/// Hashes the storage totals and the product bits of one build.
fn products<M: SpMvMulti<f64>>(h: &mut Fnv, mat: &M, input: &Input) {
    h.u64(mat.nnz_stored() as u64);
    h.u64(mat.matrix_bytes() as u64);
    for v in mat.spmv(&input.x) {
        h.u64(v.to_bits());
    }
    for v in mat.spmv_multi(&input.xk, K) {
        h.u64(v.to_bits());
    }
}

/// Hashes every build of one format family of one input.
type Family = fn(&mut Fnv, &Input, KernelImpl);

fn bcsr(h: &mut Fnv, input: &Input, imp: KernelImpl) {
    for shape in BlockShape::search_space() {
        let mat = Bcsr::from_csr(&input.csr, shape, imp);
        h.u64(mat.n_blocks() as u64);
        products(h, &mat, input);
    }
}

fn bcsd(h: &mut Fnv, input: &Input, imp: KernelImpl) {
    for b in BCSD_SIZES {
        let mat = Bcsd::from_csr(&input.csr, b, imp);
        h.u64(mat.n_blocks() as u64);
        products(h, &mat, input);
    }
}

fn bcsr_dec(h: &mut Fnv, input: &Input, imp: KernelImpl) {
    for shape in BlockShape::search_space() {
        let mat = BcsrDec::from_csr(&input.csr, shape, imp);
        h.u64(mat.main().n_blocks() as u64);
        h.u64(mat.rest().nnz() as u64);
        products(h, &mat, input);
    }
}

fn bcsd_dec(h: &mut Fnv, input: &Input, imp: KernelImpl) {
    for b in BCSD_SIZES {
        let mat = BcsdDec::from_csr(&input.csr, b, imp);
        h.u64(mat.main().n_blocks() as u64);
        h.u64(mat.rest().nnz() as u64);
        products(h, &mat, input);
    }
}

/// Checks one family's rows: `want` holds the scalar and SIMD values.
fn check_family(label: &str, family: Family, want: [u64; 2]) {
    let inputs = inputs();
    let mut imps = vec![(KernelImpl::Scalar, want[0])];
    if cfg!(target_arch = "x86_64") {
        imps.push((KernelImpl::Simd, want[1]));
    }
    let rows: Vec<_> = imps
        .into_iter()
        .map(|(imp, want)| {
            let mut h = Fnv::new();
            for input in &inputs {
                family(&mut h, input, imp);
            }
            (format!("{label} {imp}"), h.0, want)
        })
        .collect();
    check(&rows);
}

#[test]
fn bcsr_builds_are_unchanged() {
    check_family("BCSR", bcsr, [0x20ee_f4f7_9fe4_543b, 0x3fd2_057c_7905_0e33]);
}

#[test]
fn bcsd_builds_are_unchanged() {
    check_family("BCSD", bcsd, [0x4a6b_dff7_894a_76c9, 0x4a6b_dff7_894a_76c9]);
}

#[test]
fn bcsr_dec_builds_are_unchanged() {
    check_family(
        "BCSR-DEC",
        bcsr_dec,
        [0x955c_943e_b50d_4b72, 0xcccb_f76c_c6db_5cca],
    );
}

#[test]
fn bcsd_dec_builds_are_unchanged() {
    check_family(
        "BCSD-DEC",
        bcsd_dec,
        [0xa206_f1f9_f0c2_a259, 0xa206_f1f9_f0c2_a259],
    );
}
