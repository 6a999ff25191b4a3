//! Interactive-style model explorer: prediction breakdown for one
//! matrix.
//!
//! Picks a suite matrix (by paper id, default #21 audikw_1-like), prints
//! the three models' predicted time for every configuration next to the
//! measured time, and shows the per-term breakdown (`ws/BW` vs
//! `nof·nb·t_b`) for the top configurations — the anatomy of equation (3).
//!
//! ```sh
//! cargo run --release --example model_explorer [--id N] [--scale F]
//! ```

use blocked_spmv::core::MatrixShape;
use blocked_spmv::gen::{random_vector, suite};
use blocked_spmv::model::timing::measure_spmv;
use blocked_spmv::model::{profile_kernels, Config, MachineProfile, Model, ProfileOptions};

fn arg(name: &str) -> Option<String> {
    std::env::args().skip_while(|a| a != name).nth(1)
}

fn main() {
    let id: usize = arg("--id").and_then(|v| v.parse().ok()).unwrap_or(21);
    let scale: f64 = arg("--scale").and_then(|v| v.parse().ok()).unwrap_or(0.25);
    let entry = suite(scale)
        .into_iter()
        .find(|e| e.id == id)
        .expect("suite ids are 1..=30");
    let csr = entry.build(42);
    println!(
        "matrix #{:02} {} ({}): {} rows, {} nnz",
        entry.id,
        entry.name,
        entry.domain,
        csr.n_rows(),
        csr.nnz()
    );

    println!("calibrating ...");
    let machine = MachineProfile::detect_with(32 << 20);
    let profile = profile_kernels::<f64>(
        &machine,
        &ProfileOptions {
            large_bytes: 32 << 20,
            ..ProfileOptions::default()
        },
    );

    let x: Vec<f64> = random_vector(csr.n_cols(), 42);
    let mut rows: Vec<(Config, f64, [f64; 3])> = Config::enumerate(true)
        .into_iter()
        .map(|c| {
            let stats = c.substats(&csr);
            let preds = [
                Model::Mem.predict(&stats, &machine, &profile),
                Model::MemComp.predict(&stats, &machine, &profile),
                Model::Overlap.predict(&stats, &machine, &profile),
            ];
            let built = c.build(&csr);
            let real = measure_spmv(&built, &x, 2e-3, 2);
            (c, real, preds)
        })
        .collect();
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));

    println!(
        "\n{:<22} {:>9} | {:>9} {:>9} {:>9}   (ms/SpMV)",
        "configuration (by real)", "real", "MEM", "MEMCOMP", "OVERLAP"
    );
    for (c, real, preds) in rows.iter().take(12) {
        println!(
            "{:<22} {:>9.4} | {:>9.4} {:>9.4} {:>9.4}",
            c.to_string(),
            real * 1e3,
            preds[0] * 1e3,
            preds[1] * 1e3,
            preds[2] * 1e3
        );
    }

    // Term breakdown for the measured winner.
    let (best, real, _) = rows[0];
    println!(
        "\nOVERLAP breakdown for the winner ({best}, real {:.4} ms):",
        real * 1e3
    );
    for (i, s) in best.substats(&csr).iter().enumerate() {
        let t = profile.get(s.key);
        let mem = s.ws_bytes as f64 / machine.bandwidth;
        let comp = t.nof * s.nb as f64 * t.t_b;
        println!(
            "  submatrix {i}: ws/BW = {:.4} ms  +  nof({:.2}) x nb({}) x t_b({:.2} ns) = {:.4} ms",
            mem * 1e3,
            t.nof,
            s.nb,
            t.t_b * 1e9,
            comp * 1e3
        );
    }
}
