//! Measurement seam for the tuner: bandwidth probes and bounded kernel
//! re-profiles.
//!
//! When the detector latches stale, the tuner may re-measure before it
//! re-ranks — a fresh STREAM-triad bandwidth and fresh `(t_b, nof)`
//! rows for just the suspect kernel keys, folded into the ranking as
//! [`spmv_model::MeasuredOverrides`]. Those measurements are the only
//! nondeterministic inputs on the decision path, so they live behind
//! the [`Sampler`] trait:
//!
//! * [`MeasuredSampler`] — production: runs the probes on a thread
//!   pinned like a pool worker ([`spmv_parallel::run_pinned`]), so the
//!   refreshed numbers see the same core/cache environment the serving
//!   measurements came from;
//! * [`CannedSampler`] — tests and the `serve_adapt` harness: returns
//!   scripted values (and can be armed to panic, which is how the
//!   fault-injection suite proves a tuner crash never reaches serving);
//! * [`NullSampler`] — measures nothing; reranks use the stored profile
//!   unchanged.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use spmv_kernels::simd::SimdScalar;
use spmv_model::{
    profile_keys, stream_triad_bandwidth, stream_triad_bandwidth_with, BandwidthHierarchy,
    BlockTimes, DomainBandwidth, KernelKey, MachineProfile, ProfileOptions,
};
use spmv_parallel::{run_pinned, PinPolicy, Topology};

/// Supplies fresh measurements to a stale-triggered rerank.
///
/// Both methods may be slow (they measure); the tuner calls them off
/// the serving path, at most once per stale episode.
pub trait Sampler: Send + Sync {
    /// A freshly measured memory bandwidth in bytes/s, or `None` to
    /// keep the profiled value.
    fn bandwidth(&self) -> Option<f64>;

    /// Re-measured `(t_b, nof)` rows for (a subset of) `keys`. Keys the
    /// sampler cannot or will not measure are simply absent; the stored
    /// profile's rows stand for them.
    fn reprofile(&self, keys: &[KernelKey]) -> Vec<(KernelKey, BlockTimes)>;
}

/// Measures nothing: reranking uses the stored profile as-is.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSampler;

impl Sampler for NullSampler {
    fn bandwidth(&self) -> Option<f64> {
        None
    }

    fn reprofile(&self, _keys: &[KernelKey]) -> Vec<(KernelKey, BlockTimes)> {
        Vec::new()
    }
}

/// Real measurements, pinned like the pool worker they calibrate for.
///
/// `bandwidth()` runs a STREAM triad over three `triad_elems`-element
/// arrays; `reprofile(keys)` delegates to
/// [`spmv_model::profile_keys`] — both inside
/// [`spmv_parallel::run_pinned`] with this sampler's policy/worker, so
/// a tuner thread floating on some housekeeping core still measures
/// from the serving placement.
#[derive(Debug, Clone)]
pub struct MeasuredSampler<T: SimdScalar> {
    /// Machine profile the kernel probes size their matrices against.
    pub machine: MachineProfile,
    /// Kernel-probe sizing (small/large footprints, repetitions).
    pub opts: ProfileOptions,
    /// Pin policy the probe thread is pinned under.
    pub pin: PinPolicy,
    /// Worker index within `pin` (probes run "as" this pool worker).
    pub worker: usize,
    /// Elements per STREAM-triad array (three arrays are allocated).
    pub triad_elems: usize,
    /// Minimum measurement time for the triad, in seconds.
    pub triad_min_time: f64,
    _marker: PhantomData<T>,
}

impl<T: SimdScalar> MeasuredSampler<T> {
    /// A sampler with the default probe sizes: a 32 MiB-per-array triad
    /// (comfortably out of any LLC in the paper's range) and default
    /// [`ProfileOptions`], pinned as worker 0 of `pin`.
    pub fn new(machine: MachineProfile, pin: PinPolicy) -> Self {
        Self {
            machine,
            opts: ProfileOptions::default(),
            pin,
            worker: 0,
            triad_elems: (32 << 20) / std::mem::size_of::<f64>(),
            triad_min_time: 0.02,
            _marker: PhantomData,
        }
    }

    /// Measures a per-domain [`BandwidthHierarchy`] for `topology` with
    /// pinned STREAM-triad sweeps.
    ///
    /// For each domain: the **local** number runs the triad on a thread
    /// pinned to the domain's first core, so first-touch puts the three
    /// arrays on that node and the loop streams from the local
    /// controller. The **remote** number first-touches the arrays on
    /// the home domain, then hands them to
    /// [`spmv_model::stream_triad_bandwidth_with`] on a thread pinned
    /// to the *next* domain — the same pages, now reached across the
    /// interconnect. A one-domain topology reports `remote == local`
    /// (there is no interconnect to cross), which makes the resulting
    /// hierarchy equivalent to [`BandwidthHierarchy::flat`].
    ///
    /// Probes that come back non-finite or non-positive (e.g. pinning
    /// rejected inside a restricted cpuset) fall back to the stored
    /// `machine.bandwidth` so the hierarchy is always usable.
    pub fn measure_hierarchy(&self, topology: &Topology) -> BandwidthHierarchy {
        let elems = self.triad_elems;
        let min_time = self.triad_min_time;
        let nd = topology.n_domains();
        let sane = |bw: f64, fallback: f64| {
            if bw.is_finite() && bw > 0.0 {
                bw
            } else {
                fallback
            }
        };
        let mut domains = Vec::with_capacity(nd);
        for d in 0..nd {
            let home = PinPolicy::Cores(vec![topology.domains()[d][0]]);
            let local = sane(
                run_pinned(&home, 0, || stream_triad_bandwidth(elems, min_time)),
                self.machine.bandwidth,
            );
            let remote = if nd == 1 {
                local
            } else {
                // vec![1.0; n] really writes every element, so the pages
                // are touched (and placed) here, not by the remote loop.
                let (mut a, b, c) = run_pinned(&home, 0, || {
                    (
                        vec![1.0f64; elems],
                        vec![1.5f64; elems],
                        vec![2.5f64; elems],
                    )
                });
                let away = PinPolicy::Cores(vec![topology.domains()[(d + 1) % nd][0]]);
                sane(
                    run_pinned(&away, 0, move || {
                        stream_triad_bandwidth_with(&mut a, &b, &c, min_time)
                    }),
                    local,
                )
            };
            domains.push(DomainBandwidth { local, remote });
        }
        BandwidthHierarchy::new(domains)
    }
}

impl<T: SimdScalar> Sampler for MeasuredSampler<T> {
    fn bandwidth(&self) -> Option<f64> {
        let (elems, min_time) = (self.triad_elems, self.triad_min_time);
        let bw = run_pinned(&self.pin, self.worker, || {
            stream_triad_bandwidth(elems, min_time)
        });
        (bw.is_finite() && bw > 0.0).then_some(bw)
    }

    fn reprofile(&self, keys: &[KernelKey]) -> Vec<(KernelKey, BlockTimes)> {
        if keys.is_empty() {
            return Vec::new();
        }
        run_pinned(&self.pin, self.worker, || {
            profile_keys::<T>(&self.machine, &self.opts, keys)
        })
    }
}

/// Scripted measurements for deterministic tests and load harnesses.
///
/// Returns a fixed bandwidth and a fixed key→times table (filtered to
/// the keys actually requested), counts how often each method was
/// called, and can be armed to panic inside `reprofile` — the injected
/// fault the isolation tests use.
#[derive(Debug, Default)]
pub struct CannedSampler {
    bandwidth: Option<f64>,
    kernels: Vec<(KernelKey, BlockTimes)>,
    panic_on_reprofile: bool,
    bandwidth_calls: AtomicU64,
    reprofile_calls: AtomicU64,
}

impl CannedSampler {
    /// A sampler that measures nothing (like [`NullSampler`], but
    /// call-counted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Scripts the bandwidth probe.
    pub fn with_bandwidth(mut self, bytes_per_s: f64) -> Self {
        self.bandwidth = Some(bytes_per_s);
        self
    }

    /// Scripts the kernel table `reprofile` answers from.
    pub fn with_kernels(mut self, kernels: Vec<(KernelKey, BlockTimes)>) -> Self {
        self.kernels = kernels;
        self
    }

    /// Arms `reprofile` to panic — the injected tuner fault.
    pub fn panicking(mut self) -> Self {
        self.panic_on_reprofile = true;
        self
    }

    /// How many times `bandwidth` was called.
    pub fn bandwidth_calls(&self) -> u64 {
        self.bandwidth_calls.load(Ordering::Relaxed)
    }

    /// How many times `reprofile` was called.
    pub fn reprofile_calls(&self) -> u64 {
        self.reprofile_calls.load(Ordering::Relaxed)
    }
}

impl Sampler for CannedSampler {
    fn bandwidth(&self) -> Option<f64> {
        self.bandwidth_calls.fetch_add(1, Ordering::Relaxed);
        self.bandwidth
    }

    fn reprofile(&self, keys: &[KernelKey]) -> Vec<(KernelKey, BlockTimes)> {
        self.reprofile_calls.fetch_add(1, Ordering::Relaxed);
        if self.panic_on_reprofile {
            panic!("injected sampler fault (CannedSampler::panicking)");
        }
        self.kernels
            .iter()
            .filter(|(k, _)| keys.contains(k))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_sampler_filters_to_requested_keys_and_counts_calls() {
        let s = CannedSampler::new().with_bandwidth(5e9).with_kernels(vec![
            (
                KernelKey::Csr,
                BlockTimes {
                    t_b: 1e-9,
                    nof: 0.5,
                },
            ),
            (
                KernelKey::Sell {
                    c: 4,
                    imp: spmv_kernels::KernelImpl::Scalar,
                },
                BlockTimes {
                    t_b: 2e-9,
                    nof: 0.4,
                },
            ),
        ]);
        assert_eq!(s.bandwidth(), Some(5e9));
        let got = s.reprofile(&[KernelKey::Csr]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, KernelKey::Csr);
        assert_eq!(s.bandwidth_calls(), 1);
        assert_eq!(s.reprofile_calls(), 1);
    }

    #[test]
    fn panicking_sampler_panics_only_in_reprofile() {
        let s = CannedSampler::new().panicking();
        assert_eq!(s.bandwidth(), None);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.reprofile(&[KernelKey::Csr])
        }));
        assert!(r.is_err());
        assert_eq!(s.reprofile_calls(), 1);
    }

    #[test]
    fn null_sampler_measures_nothing() {
        assert_eq!(NullSampler.bandwidth(), None);
        assert!(NullSampler.reprofile(&[KernelKey::Csr]).is_empty());
    }

    #[test]
    fn measured_hierarchy_covers_every_domain() {
        // Tiny triad: this checks plumbing and shape, not real numbers.
        let mut s = MeasuredSampler::<f64>::new(MachineProfile::paper_testbed(), PinPolicy::None);
        s.triad_elems = 1 << 12;
        s.triad_min_time = 0.001;

        let flat = s.measure_hierarchy(&Topology::flat(2));
        assert_eq!(flat.n_domains(), 1);
        // One domain has no interconnect: remote is the local number.
        assert_eq!(flat.domains()[0].remote, flat.domains()[0].local);
        assert!(flat.domains()[0].local > 0.0);

        let two = s.measure_hierarchy(&Topology::from_domains(vec![vec![0], vec![1]]));
        assert_eq!(two.n_domains(), 2);
        for d in two.domains() {
            assert!(d.local > 0.0 && d.remote > 0.0);
        }
    }
}
