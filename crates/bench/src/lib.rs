#![warn(missing_docs)]

//! The experiment harness: measurement sweeps, report rendering, and the
//! binaries that regenerate every table and figure of the paper.
//!
//! Regeneration map (see DESIGN.md §6 for the full experiment index):
//!
//! | Artifact | Binary |
//! |---|---|
//! | Table I | `cargo run -p spmv-bench --release --bin table1` |
//! | Table II | `... --bin table2` |
//! | Table III | `... --bin table3` |
//! | Table IV | `... --bin table4` |
//! | Figure 2 | `... --bin figure2` |
//! | Figure 3 | `... --bin figure3` |
//! | Figure 4 | `... --bin figure4` |
//!
//! All binaries share the options parsed by [`cli::Args`]; run any of
//! them with `--help` for the list.

pub mod cli;
pub mod diagnostics;
pub mod experiments;
pub mod report;
pub mod sweep;

pub use cli::{write_trace, Args};
pub use report::{Align, Table};
pub use sweep::{AnyConfig, ExpOpts, MatrixSweep, SpeedupStats};
