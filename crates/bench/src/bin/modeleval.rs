//! Combined model evaluation: regenerates Figure 3, Figure 4, and
//! Table IV from a single sweep (the three dedicated binaries each rerun
//! the same measurements; use this one to get all three artifacts for
//! the price of one).

use spmv_bench::experiments::modeleval;
use spmv_bench::Args;

fn main() {
    let args = Args::from_env();
    let trace = args.trace_path();
    let opts = args.experiment_opts("modeleval", "");
    eprintln!("calibrating and sweeping single precision ...");
    let sp = modeleval::run::<f32>(&opts);
    eprintln!("calibrating and sweeping double precision ...");
    let dp = modeleval::run::<f64>(&opts);
    println!("{}", modeleval::render_figure3(&sp));
    println!("{}", modeleval::render_figure3(&dp));
    println!("{}", modeleval::render_figure4(&sp));
    println!("{}", modeleval::render_figure4(&dp));
    println!("{}", modeleval::render_table4(&[&sp, &dp]));
    println!("{}", modeleval::render_residuals());
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
