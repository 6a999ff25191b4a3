#![deny(missing_docs)]

//! SpMV-as-a-service: the serving layer over the blocked-SpMV workspace.
//!
//! The paper's models pick the best (format, block, kernel) for a matrix
//! *offline*; this crate is where that selection meets traffic. It adds
//! two pieces on top of `spmv-model` and `spmv-parallel`:
//!
//! * [`Registry`] — a sharded, read-mostly map from [`MatrixId`] to
//!   [`PreparedMatrix`] (the model-selected format, optionally hosted on
//!   a persistent [`spmv_parallel::SpmvPool`]). Reads are lock-free via
//!   left-right epoch pointers; publishers swap in new versions without
//!   ever stalling a reader — the hook the adaptive-reselection roadmap
//!   item hot-swaps through.
//! * [`ServeEngine`] — an async-free batched front door. Submissions
//!   land in a bounded queue (admission control rejects, never blocks);
//!   a dispatcher drains it as soon as it wakes and coalesces the
//!   same-matrix requests that queued up while its last round ran into
//!   `k ∈ {1, 2, 4, 8}` multi-vector dispatches, which it and its
//!   helper threads run on every CPU, exploiting the
//!   SpMM path's measured 1.41–1.90× per-vector amortization; per-request
//!   latency lands in `spmv-telemetry` spans (`serve.enqueue`,
//!   `serve.wait`, `serve.batch`, `serve.dispatch`, `serve.request`) and
//!   in the engine's own p50/p95/p99 [`EngineReport`].
//!
//! The engine also feeds the adaptive loop: dispatches are timed, and
//! matrices with a registered expectation ([`ServeEngine::expect`])
//! stream `(predicted, measured)` pairs into a shared
//! `telemetry::ResidualTracker` — the signal the `tune` crate's
//! background tuner watches to detect stale selections and hot-swap
//! re-ranked configurations through [`Registry::publish`] (protocol in
//! `docs/ADAPTIVE.md`).
//!
//! `docs/SERVING.md` is the architecture tour; the `serve_load` binary
//! replays synthetic traffic mixes against all of it and records the
//! throughput/latency evidence in `results/serving.txt`; `serve_adapt`
//! does the same for the adaptive loop in `results/adaptive.txt`.
//!
//! # Example
//!
//! Mirroring `examples/quickstart.rs`, but serving the matrix instead of
//! multiplying it inline — build a matrix, let a model select its
//! format, publish, and push requests through the batching front door:
//!
//! ```
//! use std::sync::Arc;
//! use spmv_core::{Coo, Csr, SpMv};
//! use spmv_model::{KernelProfile, MachineProfile, Model};
//! use spmv_serve::{EngineOptions, MatrixId, PreparedMatrix, Registry, ServeEngine};
//!
//! // 1. Assemble a small 1-D Laplacian.
//! let n = 64;
//! let mut coo = Coo::<f64>::new(n, n);
//! for i in 0..n {
//!     coo.push(i, i, 2.0).unwrap();
//!     if i > 0 { coo.push(i, i - 1, -1.0).unwrap(); }
//!     if i + 1 < n { coo.push(i, i + 1, -1.0).unwrap(); }
//! }
//! let csr = Csr::from_coo(&coo);
//!
//! // 2. Model-driven preparation: OVERLAP ranks the extended
//! //    configuration space and the winner alone is materialized.
//! //    (A real server calibrates; a canned profile keeps this doctest
//! //    fast and deterministic.)
//! let machine = MachineProfile { bandwidth: 8e9, l1_bytes: 32 << 10, llc_bytes: 8 << 20 };
//! let profile = KernelProfile::uniform(1e-9, 0.5);
//! let prepared = PreparedMatrix::prepare(&csr, Model::Overlap, &machine, &profile, true);
//!
//! // 3. Publish and serve.
//! let registry = Arc::new(Registry::new());
//! let id = MatrixId(1);
//! registry.publish(id, prepared);
//! let engine = ServeEngine::new(Arc::clone(&registry), EngineOptions::default());
//!
//! let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
//! let y = engine.submit_wait(id, x.clone()).unwrap();
//! assert_eq!(y, csr.spmv(&x));
//! ```

pub mod engine;
pub mod registry;

pub use engine::{EngineOptions, EngineReport, LatencySummary, ServeEngine, ServeError, Ticket};
pub use registry::{MatrixId, PreparedMatrix, Registry, Selection};
pub use spmv_model::residual_key_for;
