//! Machine characterization: cache sizes and sustainable memory
//! bandwidth.
//!
//! The models need exactly two machine numbers (§IV): the effective
//! memory bandwidth `BW` — which the paper takes from the STREAM
//! benchmark — and the cache geometry that sizes the two profiling
//! matrices (L1-resident for `t_b`, beyond-LLC for `nof`). Bandwidth is
//! measured here with a STREAM-style triad; cache sizes are read from
//! sysfs where available, with conservative defaults elsewhere.

use crate::timing;

/// The machine numbers consumed by the performance models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// Sustainable memory bandwidth in bytes per second (STREAM triad).
    pub bandwidth: f64,
    /// L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// Last-level cache size in bytes.
    pub llc_bytes: usize,
}

impl MachineProfile {
    /// A fixed profile for tests and examples that must not spend time
    /// measuring: 3.36 GiB/s (the paper testbed's STREAM number), 32 KiB
    /// L1, 4 MiB L2 — the paper's Core 2 Xeon.
    pub fn paper_testbed() -> Self {
        MachineProfile {
            bandwidth: 3.36 * (1u64 << 30) as f64,
            l1_bytes: 32 * 1024,
            llc_bytes: 4 * 1024 * 1024,
        }
    }

    /// Measures the current machine: sysfs cache geometry plus a STREAM
    /// triad bandwidth run with a total footprint of `4 * llc` bytes,
    /// clamped to `[48 MiB, 384 MiB]` so machines with very large (or
    /// heavily shared) last-level caches still finish promptly. Pass an
    /// explicit footprint with [`MachineProfile::detect_with`] to match
    /// the working-set regime of the matrices being modeled.
    pub fn detect() -> Self {
        let (_, llc) = cache_sizes();
        Self::detect_with((4 * llc).clamp(48 << 20, 384 << 20))
    }

    /// Like [`MachineProfile::detect`], with an explicit total triad
    /// footprint in bytes (split over the three STREAM arrays).
    ///
    /// The models only require that `BW` reflects the memory level the
    /// evaluated working sets actually stream from; when matrices fit
    /// inside an oversized LLC, sizing the triad like the matrices keeps
    /// the model inputs consistent (see DESIGN.md §2).
    pub fn detect_with(triad_footprint_bytes: usize) -> Self {
        let (l1_bytes, llc_bytes) = cache_sizes();
        let elems = (triad_footprint_bytes / 24).max(1 << 16);
        MachineProfile {
            bandwidth: stream_triad_bandwidth(elems, 0.05),
            l1_bytes,
            llc_bytes,
        }
    }
}

/// Reads (L1D, LLC) sizes from sysfs, with 32 KiB / 8 MiB fallbacks.
pub fn cache_sizes() -> (usize, usize) {
    let mut l1 = None;
    let mut llc: Option<usize> = None;
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}")).ok();
        let Some(size_s) = read("size") else { continue };
        let Some(bytes) = parse_cache_size(size_s.trim()) else {
            continue;
        };
        let level: u32 = read("level")
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        let ctype = read("type")
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        if level == 1 && ctype != "Instruction" {
            l1 = Some(bytes);
        }
        if ctype != "Instruction" {
            llc = Some(llc.unwrap_or(0).max(bytes));
        }
    }
    (l1.unwrap_or(32 * 1024), llc.unwrap_or(8 * 1024 * 1024))
}

/// Parses sysfs cache size strings like `"32K"`, `"4096K"`, `"8M"`.
fn parse_cache_size(s: &str) -> Option<usize> {
    let (digits, unit): (String, String) = s.chars().partition(|c| c.is_ascii_digit());
    let n: usize = digits.parse().ok()?;
    Some(match unit.to_ascii_uppercase().as_str() {
        "" => n,
        "K" => n * 1024,
        "M" => n * 1024 * 1024,
        "G" => n * 1024 * 1024 * 1024,
        _ => return None,
    })
}

/// STREAM triad `a[i] = b[i] + s * c[i]` over `elems` doubles per array;
/// returns bytes/second counting 24 bytes per element (two reads and one
/// write), exactly as STREAM reports it.
///
/// The arrays are allocated and initialized on the calling thread, so on
/// a NUMA machine first-touch places their pages on the caller's node —
/// this measures *local* bandwidth when the caller is pinned. To measure
/// a cross-node stream, allocate the arrays on one node and hand them to
/// [`stream_triad_bandwidth_with`] on a thread pinned elsewhere.
pub fn stream_triad_bandwidth(elems: usize, min_time: f64) -> f64 {
    let mut a = vec![0.0f64; elems];
    let b = vec![1.5f64; elems];
    let c = vec![2.5f64; elems];
    stream_triad_bandwidth_with(&mut a, &b, &c, min_time)
}

/// The triad loop of [`stream_triad_bandwidth`] over caller-provided
/// arrays, leaving page placement to the caller.
///
/// This is the seam NUMA bandwidth probes use: whoever *initialized*
/// `a`/`b`/`c` first-touched their pages onto its node, so running the
/// timed loop from a thread pinned to a different node measures the
/// remote (interconnect) stream the paper's single-socket testbed never
/// sees. `a.len()` elements are streamed; `b` and `c` must be at least
/// as long.
pub fn stream_triad_bandwidth_with(a: &mut [f64], b: &[f64], c: &[f64], min_time: f64) -> f64 {
    assert!(
        b.len() >= a.len() && c.len() >= a.len(),
        "triad source arrays shorter than destination"
    );
    let elems = a.len();
    let s = 3.0f64;
    let secs = timing::measure(
        || {
            for ((ai, bi), ci) in a.iter_mut().zip(b).zip(c) {
                *ai = bi + s * ci;
            }
            std::hint::black_box(&a);
        },
        min_time,
        3,
    );
    (24 * elems) as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sizes() {
        assert_eq!(parse_cache_size("32K"), Some(32 * 1024));
        assert_eq!(parse_cache_size("8M"), Some(8 * 1024 * 1024));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("junk"), None);
    }

    #[test]
    fn cache_sizes_are_sane() {
        let (l1, llc) = cache_sizes();
        assert!((8 * 1024..=1024 * 1024).contains(&l1));
        assert!(llc >= l1);
    }

    #[test]
    fn triad_measures_positive_bandwidth() {
        // Tiny arrays — this only checks plumbing, not a real number.
        let bw = stream_triad_bandwidth(1 << 14, 0.002);
        assert!(bw > 1e6, "implausible bandwidth {bw}");
    }

    #[test]
    fn triad_with_external_arrays_measures_positive_bandwidth() {
        let n = 1 << 14;
        let mut a = vec![0.0f64; n];
        let b = vec![1.5f64; n];
        let c = vec![2.5f64; n];
        let bw = stream_triad_bandwidth_with(&mut a, &b, &c, 0.002);
        assert!(bw > 1e6, "implausible bandwidth {bw}");
        // The loop really ran: a = b + 3c = 9.0 everywhere.
        assert!(a.iter().all(|&v| v == 9.0));
    }

    #[test]
    fn paper_testbed_constants() {
        let m = MachineProfile::paper_testbed();
        assert_eq!(m.l1_bytes, 32 * 1024);
        assert_eq!(m.llc_bytes, 4 * 1024 * 1024);
        assert!((m.bandwidth / (1u64 << 30) as f64 - 3.36).abs() < 1e-9);
    }
}
