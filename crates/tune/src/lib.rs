#![deny(missing_docs)]

//! Online adaptive reselection for served SpMV: keep the paper's model
//! choice honest while the world drifts underneath it.
//!
//! The models (`spmv-model`) rank (format, block, kernel) candidates
//! from inputs measured *once*: a machine bandwidth, a kernel profile,
//! and the matrix's structure statistics. Any of those can go stale in
//! a long-lived server — a co-tenant eats memory bandwidth, a solver
//! re-meshes and republishes a structurally different matrix, thermal
//! limits move kernel timings. This crate closes the loop:
//!
//! * the serving engine streams `(predicted, measured)` residual pairs
//!   per dispatched request (`spmv-serve`, `spmv-telemetry`);
//! * a [`StalenessDetector`] per watched matrix folds them into a
//!   windowed relative-error statistic with hysteresis and a
//!   consecutive-observation requirement, so noise never flaps the
//!   selection;
//! * on staleness, the [`Tuner`] re-measures bounded inputs (bandwidth,
//!   the suspect kernel keys — the [`Sampler`] seam), re-ranks with
//!   exactly `select_extended_measured`, and hot-swaps the winner
//!   through the registry's versioned publish — readers never stall,
//!   in-flight requests complete against the version they captured;
//! * every step lands in a [`TimelineEvent`] log stamped by an injected
//!   [`TuneClock`], and the decision path reads no wall clock at all,
//!   so seeded tests replay whole stale → reprofile → rerank → swap →
//!   recover episodes deterministically.
//!
//! `docs/ADAPTIVE.md` walks the detector math, the swap protocol, and
//! the test seams; the `serve_adapt` binary drives the loop under
//! injected structure drift and bandwidth perturbation and writes the
//! recovery timeline to `results/adaptive.txt`.
//!
//! # Example
//!
//! A deterministic miniature of the whole loop — no engine, no threads:
//! residuals are recorded by hand and passes driven by [`Tuner::run_once`]:
//!
//! ```
//! use std::sync::Arc;
//! use spmv_core::{Coo, Csr};
//! use spmv_model::{Config, KernelProfile, MachineProfile, Model};
//! use spmv_serve::{residual_key_for, MatrixId, PreparedMatrix, Registry};
//! use spmv_tune::{
//!     CannedSampler, DetectorConfig, ManualClock, Tuner, WatchSpec,
//! };
//!
//! let csr = Arc::new(Csr::from_coo(&Coo::from_triplets(8, 8, vec![
//!     (0, 0, 1.0f64), (3, 2, 1.0), (7, 7, 1.0),
//! ]).unwrap()));
//! let registry = Arc::new(Registry::new());
//! let id = MatrixId(1);
//! registry.publish(id, PreparedMatrix::from_config(Config::CSR, &csr));
//!
//! let tuner = Tuner::new(
//!     Arc::clone(&registry),
//!     None,                                 // no engine: residuals by hand
//!     Arc::new(ManualClock::new(0)),
//!     Box::new(CannedSampler::new()),
//! );
//! let machine = MachineProfile { bandwidth: 8e9, l1_bytes: 32 << 10, llc_bytes: 8 << 20 };
//! let spec = WatchSpec {
//!     detector: DetectorConfig { window: 2, consecutive: 2, min_samples: 1,
//!                                ..DetectorConfig::default() },
//!     ..WatchSpec::new(Arc::clone(&csr), Model::Overlap, machine,
//!                      KernelProfile::uniform(1e-9, 0.5))
//! };
//! assert!(tuner.watch(id, spec));
//!
//! // Feed residuals that are 10x off the prediction: two observations
//! // latch the detector, and the next pass reranks and republishes.
//! let key = residual_key_for(Config::CSR, Model::Overlap);
//! for _ in 0..2 {
//!     tuner.residuals().record_for(id.0, &key, 1e-6, 1e-5);
//! }
//! let events = tuner.run_once();
//! assert!(!events.is_empty());
//! assert!(registry.version_of(id).unwrap() > 1);   // hot-swapped
//! ```

pub mod clock;
pub mod core;
pub mod detector;
pub mod runtime;
pub mod sampler;

pub use clock::{ManualClock, SystemClock, TuneClock};
pub use core::{Transition, TunerCore, WatchSpec};
pub use detector::{DetectorConfig, StalenessDetector, Verdict};
pub use runtime::{TimelineEvent, TimelineKind, Tuner};
pub use sampler::{CannedSampler, MeasuredSampler, NullSampler, Sampler};
