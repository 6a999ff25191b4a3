//! Experiment drivers, one module per paper artifact.
//!
//! | Module | Regenerates |
//! |---|---|
//! | [`table1`] | Table I — the matrix suite |
//! | [`wins`] | Table II (wins per format) and Table III (speedups over CSR) |
//! | [`threads`] | Figure 2 — wins across 1/2/4 cores |
//! | [`modeleval`] | Figures 3–4 and Table IV — model accuracy and selection quality |
//!
//! Each `run` function returns structured results; the harness binaries
//! in `src/bin/` parse options, call `run`, and print the paper-shaped
//! tables.

pub mod modeleval;
pub mod table1;
pub mod threads;
pub mod wins;
