//! Memory-domain (NUMA) topology discovery and worker placement.
//!
//! The paper's testbed is a single-socket machine, so its multithreaded
//! model (§V-A) can assume one shared memory controller. Past four
//! threads that assumption breaks: strips spanning sockets stream from
//! *different* controllers, and a strip whose pages live on the remote
//! node pays the interconnect instead of local DRAM
//! (Schubert/Hager/Fehske, arXiv:0910.4836). This module gives the
//! runtime the map it needs to place workers and pages deliberately:
//!
//! * [`Topology::detect`] parses `/sys/devices/system/node/node*/cpulist`
//!   on Linux (the same sysfs surface `numactl --hardware` reads) and
//!   falls back to a single flat domain everywhere else;
//! * [`Topology::flat`] / [`Topology::from_domains`] are the injectable
//!   seams: tests construct an exact fake topology and every placement
//!   decision downstream is a pure function of it — deterministic on
//!   any box;
//! * [`Topology::core_for_worker`] / [`Topology::domain_for_worker`]
//!   define the placement rule used by `PinPolicy::Domains`: workers are
//!   dealt **round-robin across domains** (worker `i` → domain
//!   `i % D`), so a `t`-thread pool loads every memory controller with
//!   ⌈t/D⌉ strips instead of filling socket 0 first — aggregate
//!   bandwidth then sums over controllers, which is the whole point of
//!   scaling past one socket.
//!
//! The model-side mirror of this map is
//! `spmv_model::multicore::BandwidthHierarchy`, which charges each
//! strip's traffic against the domain its pages live on; the
//! first-touch allocation in [`crate::SpmvPool`] is what makes "its
//! pages" equal "its worker's domain".

use crate::affinity::available_cores;

/// The host's memory domains: one list of core ids per domain.
///
/// Constructed by [`Topology::detect`] (sysfs), [`Topology::flat`]
/// (single domain), or [`Topology::from_domains`] (explicit — the test
/// seam). Domains are kept in node order; every core id appears in at
/// most one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    domains: Vec<Vec<usize>>,
}

impl Topology {
    /// A single flat domain over cores `0..n_cores` — the topology of
    /// the paper's one-socket testbed, and the portable fallback when
    /// sysfs is absent. `n_cores` is clamped to at least 1.
    pub fn flat(n_cores: usize) -> Self {
        Topology {
            domains: vec![(0..n_cores.max(1)).collect()],
        }
    }

    /// An explicit topology — the injectable seam for deterministic
    /// tests (e.g. a fake two-socket box on a laptop).
    ///
    /// # Panics
    ///
    /// Panics if no domain is non-empty or a core id repeats across
    /// domains.
    pub fn from_domains(domains: Vec<Vec<usize>>) -> Self {
        let domains: Vec<Vec<usize>> = domains.into_iter().filter(|d| !d.is_empty()).collect();
        assert!(
            !domains.is_empty(),
            "topology needs at least one non-empty domain"
        );
        let mut seen = std::collections::BTreeSet::new();
        for core in domains.iter().flatten() {
            assert!(seen.insert(*core), "core {core} appears in two domains");
        }
        Topology { domains }
    }

    /// Discovers the host topology from
    /// `/sys/devices/system/node/node*/cpulist`, falling back to
    /// [`Topology::flat`]`(available_cores())` when the sysfs tree is
    /// absent (non-Linux, restricted container) or unparseable.
    pub fn detect() -> Self {
        Self::detect_from("/sys/devices/system/node")
            .unwrap_or_else(|| Topology::flat(available_cores()))
    }

    /// The sysfs parser behind [`Topology::detect`], entered at an
    /// arbitrary root so tests can point it at a fixture directory.
    /// Returns `None` when no `node*/cpulist` yields any core.
    pub fn detect_from(root: &str) -> Option<Self> {
        let mut nodes: Vec<(usize, Vec<usize>)> = Vec::new();
        for entry in std::fs::read_dir(root).ok()?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(idx) = name
                .strip_prefix("node")
                .and_then(|s| s.parse::<usize>().ok())
            else {
                continue;
            };
            let path = entry.path().join("cpulist");
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let cores = parse_cpulist(text.trim());
            if !cores.is_empty() {
                nodes.push((idx, cores));
            }
        }
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_by_key(|(idx, _)| *idx);
        let mut seen = std::collections::BTreeSet::new();
        for (_, cores) in &nodes {
            for &c in cores {
                if !seen.insert(c) {
                    return None; // overlapping nodes: distrust the tree
                }
            }
        }
        Some(Topology {
            domains: nodes.into_iter().map(|(_, cores)| cores).collect(),
        })
    }

    /// Number of memory domains (≥ 1).
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// Total cores across all domains.
    pub fn n_cores(&self) -> usize {
        self.domains.iter().map(Vec::len).sum()
    }

    /// The core lists, one per domain, in node order.
    pub fn domains(&self) -> &[Vec<usize>] {
        &self.domains
    }

    /// The domain holding `core`, if any.
    pub fn domain_of_core(&self, core: usize) -> Option<usize> {
        self.domains.iter().position(|d| d.contains(&core))
    }

    /// The domain the `worker`-th pool thread is dealt to: round-robin
    /// across domains (`worker % n_domains`), so every memory controller
    /// carries an equal share of strips.
    pub fn domain_for_worker(&self, worker: usize) -> usize {
        worker % self.domains.len()
    }

    /// The core the `worker`-th pool thread is pinned to under
    /// domain-spread placement: within its domain
    /// ([`Topology::domain_for_worker`]), consecutive visits take
    /// consecutive cores, wrapping when a domain is oversubscribed.
    pub fn core_for_worker(&self, worker: usize) -> usize {
        let d = self.domain_for_worker(worker);
        let cores = &self.domains[d];
        cores[(worker / self.domains.len()) % cores.len()]
    }

    /// The strip → domain map for an `n_workers`-strip pool — the
    /// assignment `spmv_model::multicore::predict_threaded_hierarchy`
    /// charges per-strip traffic with.
    pub fn domain_assignment(&self, n_workers: usize) -> Vec<usize> {
        (0..n_workers).map(|w| self.domain_for_worker(w)).collect()
    }
}

/// Parses a sysfs cpulist like `"0-3,8-11"` (single ids and inclusive
/// ranges, comma-separated) into a sorted core list. Malformed fields
/// are skipped rather than failing the whole list.
pub fn parse_cpulist(s: &str) -> Vec<usize> {
    let mut cores = Vec::new();
    for field in s.split(',') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        if let Some((lo, hi)) = field.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                if lo <= hi && hi - lo < 4096 {
                    cores.extend(lo..=hi);
                }
            }
        } else if let Ok(c) = field.parse::<usize>() {
            cores.push(c);
        }
    }
    cores.sort_unstable();
    cores.dedup();
    cores
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_cpulist_ranges_and_singles() {
        assert_eq!(parse_cpulist("0-3,8-11"), vec![0, 1, 2, 3, 8, 9, 10, 11]);
        assert_eq!(parse_cpulist("5"), vec![5]);
        assert_eq!(parse_cpulist("3,1,2"), vec![1, 2, 3]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
        // Malformed fields are skipped, not fatal.
        assert_eq!(parse_cpulist("junk,2,4-x,7-5"), vec![2]);
    }

    #[test]
    fn flat_topology_is_one_domain() {
        let t = Topology::flat(4);
        assert_eq!(t.n_domains(), 1);
        assert_eq!(t.n_cores(), 4);
        assert_eq!(t.domains()[0], vec![0, 1, 2, 3]);
        assert_eq!(Topology::flat(0).n_cores(), 1);
    }

    #[test]
    fn workers_spread_round_robin_across_domains() {
        let t = Topology::from_domains(vec![vec![0, 1], vec![2, 3]]);
        // Worker i lands on domain i % 2, filling cores within a domain
        // on successive visits.
        assert_eq!(t.domain_assignment(4), vec![0, 1, 0, 1]);
        assert_eq!(t.core_for_worker(0), 0);
        assert_eq!(t.core_for_worker(1), 2);
        assert_eq!(t.core_for_worker(2), 1);
        assert_eq!(t.core_for_worker(3), 3);
        // Oversubscription wraps within the domain.
        assert_eq!(t.core_for_worker(4), 0);
        assert_eq!(t.domain_for_worker(5), 1);
    }

    #[test]
    fn uneven_domains_wrap_independently() {
        let t = Topology::from_domains(vec![vec![0], vec![4, 5, 6]]);
        assert_eq!(t.core_for_worker(0), 0);
        assert_eq!(t.core_for_worker(1), 4);
        assert_eq!(t.core_for_worker(2), 0); // domain 0 wraps already
        assert_eq!(t.core_for_worker(3), 5);
        assert_eq!(t.domain_of_core(5), Some(1));
        assert_eq!(t.domain_of_core(9), None);
    }

    #[test]
    #[should_panic(expected = "two domains")]
    fn duplicate_cores_are_rejected() {
        let _ = Topology::from_domains(vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    fn detect_always_yields_a_usable_topology() {
        let t = Topology::detect();
        assert!(t.n_domains() >= 1);
        assert!(t.n_cores() >= 1);
    }

    #[test]
    fn detect_from_fixture_directory() {
        let dir = std::env::temp_dir().join(format!("spmv-topo-test-{}", std::process::id()));
        let mk = |node: &str, list: &str| {
            let d = dir.join(node);
            std::fs::create_dir_all(&d).unwrap();
            std::fs::write(d.join("cpulist"), list).unwrap();
        };
        mk("node0", "0-1\n");
        mk("node1", "2-3\n");
        let t = Topology::detect_from(dir.to_str().unwrap()).expect("fixture parses");
        assert_eq!(t.domains(), &[vec![0, 1], vec![2, 3]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn detect_from_missing_root_is_none() {
        assert!(Topology::detect_from("/nonexistent/spmv-topo").is_none());
    }
}
