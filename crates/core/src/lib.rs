#![warn(missing_docs)]

//! Core types for blocked sparse matrix-vector multiplication.
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! * [`Scalar`] — the numeric element trait, implemented for `f32` (the
//!   paper's *single precision*, `sp`) and `f64` (*double precision*, `dp`);
//! * [`Coo`] — a triplet (coordinate) builder used to assemble matrices;
//! * [`Csr`] — Compressed Sparse Row storage, the paper's baseline format
//!   and the input to every blocked-format conversion;
//! * [`DenseMatrix`] — a row-major dense matrix used as the multiplication
//!   reference in tests and as the profiling workload for the performance
//!   models;
//! * [`SpMv`] / [`MatrixShape`] — the kernel interface shared by all storage
//!   formats, and [`multi`] — the chunking and k-tuple copy behind every
//!   format's multi-vector path;
//! * [`rng::Rng`] — the seeded splitmix64 stream every generator, test
//!   corpus and harness draws from.
//!
//! Index arrays use `u32` throughout, matching the paper's experimental
//! setup ("we used four-byte integers for the indexing structures of every
//! format", §V).
//!
//! # Example
//!
//! ```
//! use spmv_core::{Coo, Csr, SpMv};
//!
//! let mut coo = Coo::<f64>::new(3, 3);
//! coo.push(0, 0, 2.0).unwrap();
//! coo.push(1, 1, 3.0).unwrap();
//! coo.push(2, 0, 1.0).unwrap();
//! let csr = Csr::from_coo(&coo);
//! let y = csr.spmv(&[1.0, 1.0, 1.0]);
//! assert_eq!(y, vec![2.0, 3.0, 1.0]);
//! ```

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod multi;
pub mod rng;
pub mod scalar;
pub mod traits;

pub use coo::Coo;
pub use csr::Csr;
pub use dense::DenseMatrix;
pub use error::{Error, Result};
pub use scalar::{Precision, Scalar};
pub use traits::{MatrixShape, SpMv, SpMvMulti};

/// The index type used by every storage format's indexing structures.
///
/// The paper uses four-byte integers for all index arrays (§V); matrices
/// whose dimensions or nonzero counts exceed `u32::MAX` are rejected at
/// construction time with [`Error::IndexOverflow`].
pub type Index = u32;

/// Upper bound (inclusive) on dimensions and nonzero counts representable
/// with [`Index`].
pub const MAX_INDEX: usize = u32::MAX as usize;
