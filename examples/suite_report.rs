//! Structural tour of the 30-matrix synthetic suite.
//!
//! For every suite entry this prints the properties the blocked formats
//! are sensitive to: the fill ratio a 2x2/3x3-tiling BCSR would achieve,
//! the fraction of nonzeros living in full blocks (what BCSR-DEC
//! captures), the diagonal-block fill (BCSD), and the mean horizontal
//! run length (1D-VBL) — a quick way to see *why* each format wins where
//! it does in Tables II/III.
//!
//! ```sh
//! cargo run --release --example suite_report [--scale F]
//! ```

use blocked_spmv::core::MatrixShape;
use blocked_spmv::formats::{bcsd_stats, bcsr_dec_stats, bcsr_stats, vbl_stats};
use blocked_spmv::gen::{analyze, suite};
use blocked_spmv::kernels::BlockShape;

fn main() {
    let scale = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let s22 = BlockShape::new(2, 2).unwrap();
    let s13 = BlockShape::new(1, 3).unwrap();

    println!(
        "{:<18} {:>9} {:>10} | {:>8} {:>8} {:>8} {:>8} {:>7} {:>6} {:>5}",
        "matrix",
        "rows",
        "nnz",
        "fill2x2",
        "full2x2",
        "fill-d4",
        "run-len",
        "nnz/row",
        "skew",
        "sym"
    );
    for entry in suite(scale) {
        let csr = entry.build(42);
        let nnz = csr.nnz();
        let b22 = bcsr_stats(&csr, s22);
        let d22 = bcsr_dec_stats(&csr, s22);
        let d4 = bcsd_stats(&csr, 4);
        let vbl = vbl_stats(&csr);
        let _ = bcsr_stats(&csr, s13); // also exercised; 1x3 suits FEM dof=3
        let a = analyze(&csr);
        println!(
            "{:<18} {:>9} {:>10} | {:>7.0}% {:>7.0}% {:>7.0}% {:>8.2} {:>7.1} {:>6.1} {:>5}",
            format!("{:02}.{}", entry.id, entry.name),
            csr.n_rows(),
            nnz,
            nnz as f64 / b22.stored.max(1) as f64 * 100.0,
            (nnz - d22.rest_nnz) as f64 / nnz.max(1) as f64 * 100.0,
            nnz as f64 / d4.stored.max(1) as f64 * 100.0,
            nnz as f64 / vbl.nb.max(1) as f64,
            a.avg_row_nnz,
            a.row_skew(),
            if a.pattern_symmetric { "yes" } else { "no" },
        );
    }
    println!(
        "\nfill2x2  = nnz / stored for aligned 2x2 BCSR (100% = perfect blocks)\n\
         full2x2  = share of nnz captured by completely full 2x2 blocks (BCSR-DEC)\n\
         fill-d4  = nnz / stored for BCSD with b=4 diagonals\n\
         run-len  = mean 1D-VBL horizontal run length\n\
         skew     = max row length / mean row length; sym = symmetric pattern\n\
         expected: FEM entries (#16, #20-27) block well; diagonal entries (#8, #18)\n\
         favor BCSD; graphs (#11, #12) and circuits block poorly, keeping CSR alive."
    );
}
