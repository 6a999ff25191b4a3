//! Index-compression report: regenerates `results/compression.txt` —
//! measured index-byte reduction and measured-vs-predicted times for the
//! narrow-index blocked formats, per suite matrix.

use spmv_bench::experiments::compression;
use spmv_bench::Args;

fn main() {
    let args = Args::from_env();
    let trace = args.trace_path();
    let opts = args.experiment_opts("compression", "");
    eprintln!("calibrating and sweeping single precision ...");
    let sp = compression::run::<f32>(&opts);
    eprintln!("calibrating and sweeping double precision ...");
    let dp = compression::run::<f64>(&opts);
    println!("{}", compression::render(&sp));
    println!("{}", compression::render(&dp));
    println!(
        "machine: {:.2} GiB/s triad, L1 {} KiB, LLC {} MiB",
        dp.machine.bandwidth / (1u64 << 30) as f64,
        dp.machine.l1_bytes / 1024,
        dp.machine.llc_bytes / (1024 * 1024)
    );
    if let Some(path) = trace {
        spmv_bench::write_trace(&path);
    }
}
