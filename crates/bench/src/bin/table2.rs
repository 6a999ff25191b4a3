//! Regenerates Table II: the number of matrices each storage format wins
//! in the four single-threaded configurations (dp, dp-simd, sp, sp-simd).

use spmv_bench::experiments::wins;
use spmv_bench::Args;

fn main() {
    let opts = Args::from_env().experiment_opts("table2", "");
    eprintln!(
        "sweeping {} configurations per matrix and precision ...",
        106
    );
    let result = wins::run(&opts);
    println!("{}", wins::render_table2(&result));
    println!(
        "paper shape check (Table II): BCSR and CSR should hold the most wins,\n\
         BCSR gaining further in single precision; 1D-VBL wins at most one matrix."
    );
}
