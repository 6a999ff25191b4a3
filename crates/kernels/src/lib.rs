#![warn(missing_docs)]

//! Block-specific SpMV multiply kernels.
//!
//! The paper implements "a block-specific multiplication routine for each
//! particular block" (§V-A), for every fixed block shape with up to eight
//! elements, in both a plain and a vectorized (SSE2) variant. This crate is
//! that kernel library:
//!
//! * [`shapes`] — the block-shape search space ([`BlockShape`],
//!   [`BCSD_SIZES`], [`KernelImpl`]);
//! * [`scalar`] — fully unrolled scalar kernels, monomorphized per shape
//!   through const generics;
//! * [`simd`] — SSE2 variants for x86-64 (always available on that
//!   target), falling back to the scalar kernels elsewhere;
//! * [`registry`] — runtime dispatch from `(shape, implementation)` to a
//!   concrete kernel function pointer, which is what the storage formats
//!   and the performance-model profiler consume.
//!
//! Kernel contract: every kernel **accumulates** (`+=`) into its output
//! slice; callers zero the output vector once per SpMV. This is what lets
//! the decomposed formats (BCSR-DEC, BCSD-DEC) run k sub-multiplications
//! into a single output vector.

pub mod block;
pub mod engine;
#[cfg(test)]
mod gate;
pub mod registry;
pub mod scalar;
pub mod sell;
pub mod shapes;
pub mod simd;

pub use registry::{
    bcsd_seg_kernel, bcsd_seg_multi_kernel, bcsr_row_kernel, bcsr_row_multi_kernel, dot_run,
    dot_run_multi, BcsdSegKernel, BcsdSegMultiKernel, BcsrRowKernel, BcsrRowMultiKernel,
};
pub use sell::{
    sell_slice_kernel, sell_slice_multi_kernel, SellSliceKernel, SellSliceMultiKernel, SELL_HEIGHTS,
};
pub use shapes::{BlockShape, KernelImpl, BCSD_SIZES, MAX_BLOCK_ELEMS};
