//! Batched SpMV (SpMM): one `k`-vector call vs `k` independent calls.
//!
//! A `k`-vector call streams the matrix arrays once, where `k` separate
//! SpMV calls stream them `k` times; on matrices whose working set
//! exceeds the LLC the batched call therefore amortizes the dominant
//! traffic term and should approach `k`-fold speedup over serial calls.
//! This example measures that amortization at k = 2, 4 and 8 on suite
//! matrices for CSR, BCSR, BCSD, SELL-C-σ and 1D-VBL, checks every
//! batched column bitwise against its per-column SpMV, and cross-checks
//! the measurement against the MEM model's predicted amortization
//! (`Model::predict_multi`).
//!
//! ```sh
//! cargo run --release --example batched            # default scale 0.3
//! cargo run --release --example batched -- 0.1     # smaller, faster
//! ```

use blocked_spmv::core::{MatrixShape, SpMv, SpMvMulti};
use blocked_spmv::formats::{Bcsd, Bcsr, SellCSigma, Vbl, SELL_SIGMA_FULL};
use blocked_spmv::gen::{random_vector, suite};
use blocked_spmv::kernels::{BlockShape, KernelImpl};
use blocked_spmv::model::timing::{measure_spmv, measure_spmv_multi};
use blocked_spmv::model::{BlockConfig, Config, KernelProfile, MachineProfile, Model};

const KS: [usize; 3] = [2, 4, 8];

/// Measures one format; returns the amortization factors
/// `k * t(single call) / t(k-vector call)` for each `k` in [`KS`].
fn report<M: SpMvMulti<f64>>(label: &str, mat: &M, x: &[f64]) -> [f64; 3] {
    let (m, n) = (mat.n_cols(), mat.n_rows());
    let t1 = measure_spmv(mat, &x[..m], 5e-3, 3);
    let mut line = format!("  {label:<16} 1 vector {:>8.3} ms", t1 * 1e3);
    let amortization = KS.map(|k| {
        let xk = &x[..k * m];
        // The batched call must equal k per-column calls exactly.
        let batched = mat.spmv_multi(xk, k);
        for t in 0..k {
            let col = mat.spmv(&xk[t * m..(t + 1) * m]);
            assert_eq!(col, &batched[t * n..(t + 1) * n], "{label} k={k} col {t}");
        }
        let tk = measure_spmv_multi(mat, xk, k, 5e-3, 3);
        let a = k as f64 * t1 / tk;
        line += &format!(" | k={k} {:>7.3} ms {a:.2}x", tk * 1e3);
        a
    });
    println!("{line}");
    amortization
}

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.3);
    let shape = BlockShape::new(3, 2).unwrap();

    // The MEM model's predicted amortization needs only the machine's
    // bandwidth (which cancels in the ratio) and the structure stats.
    let machine = MachineProfile {
        bandwidth: 1e9,
        l1_bytes: 32 * 1024,
        llc_bytes: 4 << 20,
    };
    let profile = KernelProfile::uniform(1e-9, 0.5);

    println!(
        "batched SpMV, suite scale {scale}: k-vector call time and amortization \
         k * t(1 vector) / t(k-vector call), for k in {KS:?}"
    );
    let mut best = (0.0f64, String::new());
    for entry in suite(scale).iter().filter(|e| [3, 17, 21].contains(&e.id)) {
        let csr = entry.build(11);
        println!(
            "\n#{} {} ({}): {} rows, {} nnz, CSR working set {:.1} MiB",
            entry.id,
            entry.name,
            entry.domain,
            csr.n_rows(),
            csr.nnz(),
            csr.working_set_bytes() as f64 / (1024.0 * 1024.0)
        );

        for config in [
            Config::CSR,
            Config {
                block: BlockConfig::Bcsr(shape),
                imp: KernelImpl::Simd,
            },
        ] {
            let stats = config.substats(&csr);
            let one = Model::Mem.predict(&stats, &machine, &profile);
            let predicted = KS.map(|k| {
                let many = Model::Mem.predict_multi(&stats, k, &machine, &profile);
                format!("k={k} {:.2}x", k as f64 * one / many)
            });
            println!("  MEM predicts {config}: {}", predicted.join(", "));
        }

        let x: Vec<f64> = random_vector(csr.n_cols() * KS[2], 7);
        let bcsr = Bcsr::from_csr(&csr, shape, KernelImpl::Simd);
        let bcsd = Bcsd::from_csr(&csr, 8, KernelImpl::Scalar);
        let sell = SellCSigma::from_csr(&csr, 8, SELL_SIGMA_FULL, KernelImpl::Simd);
        let vbl = Vbl::from_csr(&csr, KernelImpl::Scalar);
        for (label, a) in [
            ("csr", report("csr", &csr, &x)),
            ("bcsr-3x2 simd", report("bcsr-3x2 simd", &bcsr, &x)),
            ("bcsd b=8", report("bcsd b=8", &bcsd, &x)),
            ("sell 8/n simd", report("sell 8/n simd", &sell, &x)),
            ("1d-vbl", report("1d-vbl", &vbl, &x)),
        ] {
            for (k, a) in KS.iter().zip(a) {
                if a > best.0 {
                    best = (a, format!("{label} k={k} on #{} {}", entry.id, entry.name));
                }
            }
        }
    }
    println!("\nbest measured amortization: {:.2}x ({})", best.0, best.1);
    println!(
        "note: amortization is a single-call vs batched-call ratio, so it is \
         meaningful even on a single-core host."
    );
}
