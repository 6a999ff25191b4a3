//! Minimal seeded property-test harness, in-repo so the workspace needs
//! no registry dependency such as `proptest`.
//!
//! Model: a property is a closure `|rng, size|` that derives its inputs
//! from the workspace [`Rng`] (splitmix64, fully deterministic from the
//! seed) and scales their magnitude with `size`, then asserts with the
//! ordinary `assert!` family. [`run`] executes it over `cases` seeds with
//! `size` ramping from 1 up to [`MAX_SIZE`], catching panics.
//!
//! Shrinking is bounded and seed-preserving: on a failure at size `s`,
//! the harness replays the *same* seed down a halving ladder
//! (`s/2, s/4, …, 1`) and reports the smallest size that still fails —
//! at most `log2(s)` extra executions, no value-tree bookkeeping. Since
//! every input is a pure function of (seed, size), the shrunk case is
//! reproducible by construction.
//!
//! Reproduction: every failure message prints the base seed; rerun with
//! `SPMV_PROP_SEED=<seed>` to pin the whole suite to that sequence, or
//! bump it to explore fresh inputs. The default seed is fixed so tier-1
//! runs are stable.
//!
//! Include from an integration test with
//! `#[path = "support/prop.rs"] mod prop;` — this file is not a test
//! target itself.
#![allow(dead_code)] // each suite uses a different slice of the helpers

use std::panic::{catch_unwind, AssertUnwindSafe};

pub use blocked_spmv::core::rng::Rng;

/// Upper bound for the `size` parameter handed to properties.
pub const MAX_SIZE: usize = 32;

/// Default base seed; override with `SPMV_PROP_SEED=<u64>`.
pub const DEFAULT_SEED: u64 = 0x005E_ED0F_5EED;

/// A random sparse matrix as `(rows, cols, triplets)`, duplicates
/// allowed (summed on construction). Dimensions are in `[1, n_max)` /
/// `[1, m_max)` and the triplet count in `[0, max_entries]`.
pub fn sparse_triplets(
    rng: &mut Rng,
    n_max: usize,
    m_max: usize,
    max_entries: usize,
    lo: f64,
    hi: f64,
) -> (usize, usize, Vec<(usize, usize, f64)>) {
    let n = rng.usize_in(1, n_max.max(2));
    let m = rng.usize_in(1, m_max.max(2));
    let k = rng.usize_in(0, max_entries + 1);
    let entries = (0..k)
        .map(|_| (rng.index(n), rng.index(m), rng.f64_in(lo, hi)))
        .collect();
    (n, m, entries)
}

/// Matrix dimensions and entry budget scaled by `size` and capped, the
/// shape most suites want: small matrices at small sizes so shrinking
/// is meaningful.
pub fn scaled_dims(size: usize, cap: usize) -> (usize, usize) {
    let d = (2 + size).min(cap);
    (d, d)
}

fn base_seed() -> u64 {
    match std::env::var("SPMV_PROP_SEED") {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("SPMV_PROP_SEED must be a u64, got {s:?}")),
        Err(_) => DEFAULT_SEED,
    }
}

/// Derive the per-case seed from the base seed: one splitmix64 step so
/// consecutive cases are decorrelated.
fn case_seed(base: u64, case: usize) -> u64 {
    Rng::new(base ^ (case as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)).next_u64()
}

fn size_for(case: usize, cases: usize) -> usize {
    1 + case * (MAX_SIZE - 1) / cases.max(2).saturating_sub(1)
}

fn payload_str(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `property` over `cases` seeded inputs with `size` ramping from 1
/// to [`MAX_SIZE`]; on failure, shrink the size down a halving ladder
/// (same seed) and panic with a reproducible report.
pub fn run<F>(name: &str, cases: usize, property: F)
where
    F: Fn(&mut Rng, usize),
{
    let base = base_seed();
    for case in 0..cases {
        let seed = case_seed(base, case);
        let size = size_for(case, cases);
        let attempt =
            |s: usize| catch_unwind(AssertUnwindSafe(|| property(&mut Rng::new(seed), s)));
        if let Err(first) = attempt(size) {
            // Bounded shrink: replay the same seed at halved sizes and
            // keep the smallest one that still fails.
            let (mut fail_size, mut fail_payload) = (size, first);
            let mut s = size / 2;
            loop {
                if s == 0 {
                    break;
                }
                if let Err(p) = attempt(s) {
                    fail_size = s;
                    fail_payload = p;
                }
                if s == 1 {
                    break;
                }
                s /= 2;
            }
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (seed {seed:#018x}, shrunk to size {fail_size});\n\
                 reproduce the run with SPMV_PROP_SEED={base}\n\
                 failure: {}",
                payload_str(&*fail_payload)
            );
        }
    }
}
