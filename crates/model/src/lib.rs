#![warn(missing_docs)]

//! Analytic performance models for blocked SpMV — the paper's core
//! contribution (§IV).
//!
//! Three models predict the execution time of one SpMV for a candidate
//! (format, block shape, kernel implementation):
//!
//! * [`Model::Mem`] — the classic streaming bound of Gropp et al.:
//!   `t = ws / BW` (eq. 1);
//! * [`Model::MemComp`] — adds the computational part:
//!   `t = Σ ws_i/BW + nb_i · t_b` (eq. 2);
//! * [`Model::Overlap`] — scales the computational part by the profiled
//!   *non-overlapping factor* `nof`, the fraction of compute the
//!   hardware prefetcher cannot hide behind memory transfers (eq. 3–4).
//!
//! The workflow:
//!
//! 1. [`MachineProfile::detect`] measures STREAM bandwidth and reads the
//!    cache geometry (once per machine);
//! 2. [`profile_kernels`] times every block kernel on an L1-resident
//!    dense matrix (`t_b`) and an out-of-cache dense matrix (`nof`) —
//!    once per machine and precision;
//! 3. [`select()`] ranks the whole configuration space for a given matrix
//!    using only `O(nnz)` structure statistics (no format is
//!    materialized) and returns the predicted-fastest configuration.
//!
//! For batched right-hand sides (SpMM), [`Model::predict_multi`] extends
//! each model to `k`-vector calls — matrix traffic is paid once, vector
//! traffic and compute `k` times — and [`rank_multi`] ranks
//! (format, block, implementation, `k`) candidates by predicted time per
//! vector.
//!
//! ```no_run
//! use spmv_gen::GenSpec;
//! use spmv_model::{profile_kernels, select, MachineProfile, Model, ProfileOptions};
//!
//! let machine = MachineProfile::detect();
//! let profile = profile_kernels::<f64>(&machine, &ProfileOptions::default());
//! let matrix = GenSpec::FemBlocks { nodes: 10_000, dof: 3, neighbors: 8 }.build(42);
//! let best = select(Model::Overlap, &matrix, &machine, &profile, true);
//! println!("run this matrix as {} (predicted {:.3} ms/SpMV)",
//!          best.config, best.predicted * 1e3);
//! ```

pub mod config;
pub mod heuristic;
pub mod latency;
pub mod machine;
pub mod models;
pub mod multicore;
pub mod persist;
pub mod profile;
pub mod select;
pub mod timing;

pub use config::{
    residual_key_for, ArenaStats, BlockConfig, BuiltFormat, Config, KernelKey, SubStat,
};
pub use heuristic::{profile_dense, select_bcsr_shape, DenseProfile};
pub use latency::{
    input_vector_miss_estimate, measure_latency, predict_overlap_lat, LatencyProfile,
};
pub use machine::{stream_triad_bandwidth, stream_triad_bandwidth_with, MachineProfile};
pub use models::Model;
pub use multicore::{
    predict_threaded, predict_threaded_hierarchy, predicted_saturation_point, BandwidthHierarchy,
    DomainBandwidth,
};
pub use persist::{load_profile, read_profile, save_profile, write_profile};
pub use profile::{profile_kernels, profile_keys, BlockTimes, KernelProfile, ProfileOptions};
pub use select::{
    candidate_configs, candidate_configs_extended, rank, rank_multi, select, select_extended,
    select_extended_measured, Candidate, MeasuredOverrides, MultiCandidate,
};
