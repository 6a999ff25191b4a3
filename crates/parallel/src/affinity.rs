//! Thread-to-core pinning for the persistent worker pool.
//!
//! The paper's multithreaded measurements (§V-A) assume each thread runs
//! on its own core for the lifetime of the experiment; without pinning,
//! the OS may migrate workers between cores mid-measurement, which both
//! perturbs per-strip timings and invalidates the bandwidth-sharing
//! assumption of the multicore model (`spmv-model::multicore`).
//!
//! On Linux this module pins via `sched_setaffinity(2)`, called directly
//! through the C library so the crate stays dependency-free. On every
//! other platform pinning is a documented no-op: [`pin_current_thread`]
//! returns `false` and the pool keeps running unpinned.

use crate::topology::Topology;

/// How pool workers are assigned to CPU cores.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PinPolicy {
    /// Do not pin; workers float wherever the scheduler puts them.
    #[default]
    None,
    /// Pin worker `i` to core `i % available_cores()` — one worker per
    /// core, round-robin when the pool is oversubscribed. This is the
    /// placement the paper's 1/2/4-core sweep assumes.
    Compact,
    /// Pin worker `i` to `cores[i % cores.len()]` — an explicit core
    /// list, e.g. to keep workers on one NUMA node or skip SMT siblings.
    Cores(Vec<usize>),
    /// Spread workers round-robin across the topology's memory domains
    /// (worker `i` → domain `i % D`, consecutive cores within a domain),
    /// so every memory controller carries an equal share of strips —
    /// see [`Topology::core_for_worker`] for the exact rule. With the
    /// first-touch strip conversion every pool does, this is the
    /// NUMA-aware placement `docs/NUMA.md` describes.
    Domains(Topology),
}

impl PinPolicy {
    /// The core the `worker`-th pool thread should be pinned to, or
    /// `None` when the policy does not pin.
    pub fn core_for(&self, worker: usize) -> Option<usize> {
        match self {
            PinPolicy::None => None,
            PinPolicy::Compact => Some(worker % available_cores()),
            PinPolicy::Cores(cores) => {
                if cores.is_empty() {
                    None
                } else {
                    Some(cores[worker % cores.len()])
                }
            }
            PinPolicy::Domains(topology) => Some(topology.core_for_worker(worker)),
        }
    }

    /// The memory domain the `worker`-th thread executes in, when the
    /// policy knows one. `Compact`/`Cores` pin but carry no domain map;
    /// callers wanting per-domain predictions should use `Domains`.
    pub fn domain_for(&self, worker: usize) -> Option<usize> {
        match self {
            PinPolicy::Domains(topology) => Some(topology.domain_for_worker(worker)),
            _ => None,
        }
    }

    /// Whether pinning `n_workers` threads under this policy would land
    /// two workers on the same core (the policies all round-robin
    /// rather than fail, which silently serializes the "parallel"
    /// strips). Pools emit the `pool.pin_oversubscribed` telemetry
    /// counter and record the condition when this returns `true`.
    pub fn oversubscribed(&self, n_workers: usize) -> bool {
        let distinct = match self {
            PinPolicy::None => return false,
            PinPolicy::Compact => available_cores(),
            PinPolicy::Cores(cores) => {
                if cores.is_empty() {
                    return false;
                }
                let mut sorted = cores.clone();
                sorted.sort_unstable();
                sorted.dedup();
                sorted.len()
            }
            PinPolicy::Domains(topology) => topology.n_cores(),
        };
        n_workers > distinct
    }
}

/// Runs `f` to completion on a freshly spawned thread pinned as the
/// `worker`-th thread of `policy`, and returns its result.
///
/// This is the placement seam for maintenance measurements — e.g. an
/// online tuner re-profiling a suspect kernel — that must observe the
/// same core/cache environment as the pool workers they calibrate for
/// ([`PinPolicy::core_for`] gives both the same answer), without
/// hijacking a serving worker or inheriting the caller's (dispatcher,
/// tuner) affinity mask. Pinning is best-effort, like the pool's: when
/// the policy yields no core or the kernel rejects the mask, `f` simply
/// runs unpinned.
///
/// A panic in `f` is propagated to the caller.
pub fn run_pinned<R, F>(policy: &PinPolicy, worker: usize, f: F) -> R
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let core = policy.core_for(worker);
    std::thread::scope(|s| {
        let handle = std::thread::Builder::new()
            .name("spmv-pinned-task".into())
            .spawn_scoped(s, move || {
                if let Some(core) = core {
                    let _ = pin_current_thread(core);
                }
                f()
            })
            .expect("spawn pinned task thread");
        match handle.join() {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    })
}

/// Number of hardware threads the host exposes (at least 1).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pins the calling thread to `core`. Returns `true` on success.
///
/// On Linux this issues `sched_setaffinity(0, …)` — pid 0 means the
/// calling thread — with a single-core CPU mask. On other platforms (or
/// when the kernel rejects the mask, e.g. `core` outside the cgroup's
/// cpuset) it returns `false` and execution continues unpinned, so
/// callers can treat pinning as best-effort.
pub fn pin_current_thread(core: usize) -> bool {
    imp::pin_current_thread(core)
}

#[cfg(target_os = "linux")]
mod imp {
    /// `cpu_set_t` is a fixed 1024-bit mask (128 bytes) in glibc.
    const CPU_SET_WORDS: usize = 1024 / 64;

    extern "C" {
        // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin_current_thread(core: usize) -> bool {
        if core >= CPU_SET_WORDS * 64 {
            return false;
        }
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[core / 64] |= 1u64 << (core % 64);
        // SAFETY: the mask is a valid, fully-initialized 128-byte buffer
        // and pid 0 addresses only the calling thread.
        unsafe { sched_setaffinity(0, core::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn pin_current_thread(_core: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_policy_round_robins_over_cores() {
        let cores = available_cores();
        assert!(cores >= 1);
        for w in 0..2 * cores {
            assert_eq!(PinPolicy::Compact.core_for(w), Some(w % cores));
        }
    }

    #[test]
    fn explicit_core_list_cycles() {
        let p = PinPolicy::Cores(vec![3, 5]);
        assert_eq!(p.core_for(0), Some(3));
        assert_eq!(p.core_for(1), Some(5));
        assert_eq!(p.core_for(2), Some(3));
        assert_eq!(PinPolicy::Cores(vec![]).core_for(0), None);
    }

    #[test]
    fn none_policy_never_pins() {
        assert_eq!(PinPolicy::None.core_for(0), None);
        assert_eq!(PinPolicy::None.core_for(7), None);
    }

    #[test]
    fn pinning_to_core_zero_succeeds_on_linux() {
        // Core 0 exists on every host; elsewhere the no-op returns false.
        let ok = pin_current_thread(0);
        if cfg!(target_os = "linux") {
            assert!(ok, "sched_setaffinity to core 0 should succeed");
        } else {
            assert!(!ok);
        }
    }

    #[test]
    fn absurd_core_index_is_rejected() {
        assert!(!pin_current_thread(1 << 20));
    }

    #[test]
    fn run_pinned_returns_the_closure_result() {
        let sum = run_pinned(&PinPolicy::Compact, 0, || (1..=10).sum::<u64>());
        assert_eq!(sum, 55);
        // Unpinnable policies still run the work.
        let out = run_pinned(&PinPolicy::None, 3, || "ran");
        assert_eq!(out, "ran");
    }

    #[test]
    fn domains_policy_spreads_and_reports_domains() {
        let t = Topology::from_domains(vec![vec![0, 1], vec![2, 3]]);
        let p = PinPolicy::Domains(t);
        assert_eq!(p.core_for(0), Some(0));
        assert_eq!(p.core_for(1), Some(2));
        assert_eq!(p.core_for(2), Some(1));
        assert_eq!(p.core_for(3), Some(3));
        assert_eq!(p.domain_for(0), Some(0));
        assert_eq!(p.domain_for(3), Some(1));
        assert_eq!(PinPolicy::Compact.domain_for(0), None);
    }

    #[test]
    fn oversubscription_is_detected_per_policy() {
        assert!(!PinPolicy::None.oversubscribed(10_000));
        assert!(!PinPolicy::Cores(vec![]).oversubscribed(3));
        // Duplicate cores collapse: two workers on {5, 5} oversubscribe.
        assert!(PinPolicy::Cores(vec![5, 5]).oversubscribed(2));
        assert!(!PinPolicy::Cores(vec![5, 6]).oversubscribed(2));
        let t = Topology::from_domains(vec![vec![0], vec![1]]);
        assert!(!PinPolicy::Domains(t.clone()).oversubscribed(2));
        assert!(PinPolicy::Domains(t).oversubscribed(3));
        let n = available_cores();
        assert!(!PinPolicy::Compact.oversubscribed(n));
        assert!(PinPolicy::Compact.oversubscribed(n + 1));
    }

    #[test]
    fn run_pinned_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            run_pinned(&PinPolicy::None, 0, || panic!("boom"));
        });
        assert!(r.is_err());
    }
}
