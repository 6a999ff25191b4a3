#![warn(missing_docs)]

//! Multithreaded SpMV: static nnz-balanced row partitioning plus a
//! persistent, optionally core-pinned worker pool that runs the strips.
//!
//! Reproduces the paper's multithreaded setup (§V-A): row-wise split into
//! as many portions as threads, statically balanced so every thread gets
//! the same number of *stored* elements — for padded formats that count
//! includes the padding zeros. [`partition`] computes the weights and the
//! split; [`SpmvPool`] hosts the strips on long-lived workers driven by an
//! epoch barrier, with optional core pinning ([`affinity`]), each worker
//! converting its own strip, and a `pool.strip` telemetry span per strip
//! per call for measuring imbalance.
//!
//! # Example
//!
//! ```
//! use spmv_core::{Coo, Csr, SpMv};
//! use spmv_parallel::{csr_unit_weights, PinPolicy, SpmvPool};
//!
//! let csr = Csr::from_coo(&Coo::from_triplets(3, 3, vec![
//!     (0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0),
//! ]).unwrap());
//! // Two persistent workers, balanced by per-row nonzeros.
//! let pool = SpmvPool::from_csr(
//!     &csr, 2, &csr_unit_weights(&csr), 1, Csr::clone, PinPolicy::None,
//! );
//! assert_eq!(pool.spmv(&[1.0, 1.0, 1.0]), csr.spmv(&[1.0, 1.0, 1.0]));
//! ```

pub mod affinity;
pub mod partition;
pub mod pool;
pub mod topology;

pub use affinity::{run_pinned, PinPolicy};
pub use partition::{
    bcsd_unit_weights, bcsr_unit_weights, csr_unit_weights, heavy_unit, partition_units,
    remove_row, sell_unit_weights, split_segments, strip_plan, units_to_rows,
};
pub use pool::{SpmvPool, StripReport};
pub use topology::Topology;
