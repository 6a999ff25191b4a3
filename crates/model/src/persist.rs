//! Profile persistence: save and reload a machine calibration.
//!
//! Bandwidth measurement and kernel profiling take seconds to minutes;
//! they depend only on the machine and the precision, not on the matrix.
//! This module stores a calibration as a small, versioned, line-oriented
//! text file so repeated harness runs (and the `spmv-tune` CLI) can skip
//! recalibration.
//!
//! Format (one record per line, whitespace-separated):
//!
//! ```text
//! blocked-spmv-profile v1
//! machine <bandwidth> <l1_bytes> <llc_bytes>
//! csr <t_b> <nof>
//! bcsr <r> <c> <scalar|simd> <t_b> <nof>
//! bcsd <b> <scalar|simd> <t_b> <nof>
//! sell <c> <scalar|simd> <t_b> <nof>
//! ```
//!
//! The reader accepts only values a profiler can produce: a finite,
//! positive bandwidth, a finite, non-negative `t_b` and a `nof` in
//! `[0, 1]`.
//!
//! Files written while the workspace still had a delta-encoded CSR format
//! and masked (padding-free) BCSR/BCSD formats also carry
//! `csrdelta <scalar|simd> <t_b> <nof>`,
//! `bcsrmasked <r> <c> <scalar|simd> <t_b> <nof>` and
//! `bcsdmasked <b> <scalar|simd> <t_b> <nof>` lines. The reader checks
//! them like live records and skips them, so those calibrations keep
//! loading.

use crate::config::KernelKey;
use crate::machine::MachineProfile;
use crate::profile::{BlockTimes, KernelProfile};
use spmv_core::{Error, Result};
use spmv_kernels::{BlockShape, KernelImpl, BCSD_SIZES, SELL_HEIGHTS};
use std::io::{BufRead, Write};
use std::path::Path;

const MAGIC: &str = "blocked-spmv-profile v1";

fn imp_label(imp: KernelImpl) -> &'static str {
    match imp {
        KernelImpl::Scalar => "scalar",
        KernelImpl::Simd => "simd",
    }
}

/// A line's parse error, before the reader adds its line number.
type LineResult<T> = std::result::Result<T, String>;

fn parse_imp(s: &str) -> LineResult<KernelImpl> {
    match s {
        "scalar" => Ok(KernelImpl::Scalar),
        "simd" => Ok(KernelImpl::Simd),
        other => Err(format!("unknown kernel implementation `{other}`")),
    }
}

fn parse_num<N: std::str::FromStr>(s: &str, what: &str) -> LineResult<N> {
    s.parse().map_err(|_| format!("bad {what} `{s}`"))
}

/// The kernel a record's leading tokens name, or `None` for a retired
/// kernel, whose tokens are checked all the same. A masked BCSR/BCSD
/// record names its kernel exactly as its padded twin does.
fn parse_key(tok: &[&str]) -> LineResult<Option<KernelKey>> {
    let key = match *tok {
        ["csr"] => KernelKey::Csr,
        ["bcsr" | "bcsrmasked", r, c, imp] => KernelKey::Bcsr {
            shape: BlockShape::new(parse_num(r, "r")?, parse_num(c, "c")?)
                .map_err(|e| e.to_string())?,
            imp: parse_imp(imp)?,
        },
        ["bcsd" | "bcsdmasked", b, imp] => {
            let b: u8 = parse_num(b, "b")?;
            if !BCSD_SIZES.contains(&(b as usize)) {
                return Err(format!("bcsd size {b} out of range"));
            }
            KernelKey::Bcsd {
                b,
                imp: parse_imp(imp)?,
            }
        }
        ["sell", c, imp] => {
            let c: u8 = parse_num(c, "c")?;
            if !SELL_HEIGHTS.contains(&(c as usize)) {
                return Err(format!("sell slice height {c} out of range"));
            }
            KernelKey::Sell {
                c,
                imp: parse_imp(imp)?,
            }
        }
        ["csrdelta", imp] => return parse_imp(imp).map(|_| None),
        _ => return Err(format!("unknown record `{}`", tok.join(" "))),
    };
    Ok((!tok[0].ends_with("masked")).then_some(key))
}

/// A record's `t_b` and `nof`, within the bounds [`profile_keys`]
/// produces them in.
///
/// [`profile_keys`]: crate::profile_keys
fn parse_times(t_b: &str, nof: &str) -> LineResult<BlockTimes> {
    let t_b: f64 = parse_num(t_b, "t_b")?;
    let nof: f64 = parse_num(nof, "nof")?;
    if !(t_b.is_finite() && t_b >= 0.0) {
        return Err(format!("t_b {t_b} is not a finite, non-negative time"));
    }
    if !(0.0..=1.0).contains(&nof) {
        return Err(format!("nof {nof} outside [0, 1]"));
    }
    Ok(BlockTimes { t_b, nof })
}

fn parse_machine(bandwidth: &str, l1: &str, llc: &str) -> LineResult<MachineProfile> {
    let bandwidth: f64 = parse_num(bandwidth, "bandwidth")?;
    if !(bandwidth.is_finite() && bandwidth > 0.0) {
        return Err(format!("bandwidth {bandwidth} is not a positive rate"));
    }
    Ok(MachineProfile {
        bandwidth,
        l1_bytes: parse_num(l1, "l1")?,
        llc_bytes: parse_num(llc, "llc")?,
    })
}

/// Serializes a calibration to any writer.
pub fn write_profile<W: Write>(
    machine: &MachineProfile,
    profile: &KernelProfile,
    mut w: W,
) -> std::io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(
        w,
        "machine {:e} {} {}",
        machine.bandwidth, machine.l1_bytes, machine.llc_bytes
    )?;
    // Deterministic order for reproducible files.
    let mut entries: Vec<(&KernelKey, &BlockTimes)> = profile.iter().collect();
    entries.sort_by_key(|(k, _)| **k);
    for (key, times) in entries {
        match *key {
            KernelKey::Csr => writeln!(w, "csr {:e} {:e}", times.t_b, times.nof)?,
            KernelKey::Bcsr { shape, imp } => writeln!(
                w,
                "bcsr {} {} {} {:e} {:e}",
                shape.r,
                shape.c,
                imp_label(imp),
                times.t_b,
                times.nof
            )?,
            KernelKey::Bcsd { b, imp } => writeln!(
                w,
                "bcsd {} {} {:e} {:e}",
                b,
                imp_label(imp),
                times.t_b,
                times.nof
            )?,
            KernelKey::Sell { c, imp } => writeln!(
                w,
                "sell {} {} {:e} {:e}",
                c,
                imp_label(imp),
                times.t_b,
                times.nof
            )?,
        }
    }
    w.flush()
}

/// Saves a calibration to a file.
pub fn save_profile(
    machine: &MachineProfile,
    profile: &KernelProfile,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    write_profile(machine, profile, std::fs::File::create(path)?)
}

/// Deserializes a calibration from any buffered reader.
pub fn read_profile<R: BufRead>(r: R) -> Result<(MachineProfile, KernelProfile)> {
    let bad = |line: usize, msg: &str| Error::InvalidStructure(format!("line {line}: {msg}"));
    let mut lines = r.lines().enumerate();

    let (_, first) = lines.next().ok_or_else(|| bad(1, "empty profile file"))?;
    let first = first.map_err(|e| bad(1, &e.to_string()))?;
    if first.trim() != MAGIC {
        return Err(bad(1, "missing profile header"));
    }

    let mut machine: Option<MachineProfile> = None;
    let mut profile = KernelProfile::default();
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line.map_err(|e| bad(lineno, &e.to_string()))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let tok: Vec<&str> = t.split_whitespace().collect();
        let parsed = match tok.as_slice() {
            ["machine", bandwidth, l1, llc] => {
                parse_machine(bandwidth, l1, llc).map(|m| machine = Some(m))
            }
            [key @ .., t_b, nof] => parse_key(key).and_then(|key| {
                let times = parse_times(t_b, nof)?;
                if let Some(key) = key {
                    profile.set(key, times);
                }
                Ok(())
            }),
            _ => Err(format!("unknown record `{t}`")),
        };
        parsed.map_err(|msg| bad(lineno, &msg))?;
    }
    let machine = machine.ok_or_else(|| bad(0, "missing machine record"))?;
    Ok((machine, profile))
}

/// Loads a calibration from a file.
pub fn load_profile(path: impl AsRef<Path>) -> Result<(MachineProfile, KernelProfile)> {
    let f = std::fs::File::open(&path)
        .map_err(|e| Error::InvalidStructure(format!("cannot open profile: {e}")))?;
    read_profile(std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (MachineProfile, KernelProfile) {
        (
            MachineProfile::paper_testbed(),
            KernelProfile::proportional(1.5e-9, 0.42),
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (machine, profile) = sample();
        let mut buf = Vec::new();
        write_profile(&machine, &profile, &mut buf).unwrap();
        let (m2, p2) = read_profile(&buf[..]).unwrap();
        assert_eq!(machine, m2);
        assert_eq!(p2.len(), profile.len());
        for (key, times) in profile.iter() {
            let got = p2.get(*key);
            assert!((got.t_b - times.t_b).abs() < 1e-18, "{key}");
            assert!((got.nof - times.nof).abs() < 1e-12, "{key}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let (machine, profile) = sample();
        let dir = std::env::temp_dir().join("spmv_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("calib.txt");
        save_profile(&machine, &profile, &path).unwrap();
        let (m2, p2) = load_profile(&path).unwrap();
        assert_eq!(machine, m2);
        assert_eq!(p2.len(), profile.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_profile("not a profile\n".as_bytes()).is_err());
        let no_machine = format!("{MAGIC}\ncsr 1e-9 0.5\n");
        assert!(read_profile(no_machine.as_bytes()).is_err());
        // Each bad line fails the file and is named by its line number.
        for bad_line in [
            "wat 1 2 3",
            "csr 1e-9",
            "bcsr 9 9 scalar 1e-9 0.5",
            "sell 3 scalar 1e-9 0.5",
            "bcsd 1 scalar 1e-9 0.5",
            "bcsd 9 simd 1e-9 0.5",
            "csrdelta wide 1e-9 0.5",
            "csrdelta simd x 0.5",
            "csrdelta simd 1e-9",
            "bcsrmasked 9 9 scalar 1e-9 0.5",
            "bcsrmasked 2 2 wide 1e-9 0.5",
            "bcsdmasked 1 simd 1e-9 0.5",
            "bcsdmasked 4 simd 1e-9",
            // Values no profiler produces.
            "bcsr 8 1 simd nan 0.5",
            "bcsr 8 1 simd -nan 0.5",
            "bcsr 8 1 simd inf 0.5",
            "bcsr 8 1 simd -1e-6 0.5",
            "bcsr 8 1 simd 1e-9 -40",
            "bcsr 8 1 simd 1e-9 1.5",
            "bcsr 8 1 simd 1e-9 nan",
            "bcsdmasked 4 simd -1e-6 0.5",
            "machine nan 1 2",
            "machine inf 1 2",
            "machine 0 1 2",
            "machine -1e9 1 2",
        ] {
            let text = format!("{MAGIC}\nmachine 1e9 1 2\n{bad_line}\n");
            let err = read_profile(text.as_bytes()).unwrap_err().to_string();
            assert!(err.contains("line 3:"), "{bad_line}: {err}");
        }
    }

    #[test]
    fn retired_kernel_lines_are_checked_and_skipped() {
        for retired in [
            "csrdelta scalar 5.9e-10 8.1e-1",
            "csrdelta simd 2.7e-10 1e0",
            "bcsrmasked 2 4 scalar 3.1e-9 0e0",
            "bcsrmasked 8 1 simd 1.2e-9 5.5e-1",
            "bcsdmasked 2 scalar 1.4e-9 1e0",
            "bcsdmasked 8 simd 2.2e-9 3.3e-1",
        ] {
            let text = format!("{MAGIC}\nmachine 2e9 32768 4194304\ncsr 1e-9 0.25\n{retired}\n");
            let (_, p) = read_profile(text.as_bytes()).unwrap();
            assert_eq!(p.len(), 1, "{retired}");
            assert_eq!(p.get(KernelKey::Csr).nof, 0.25);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("{MAGIC}\n# comment\n\nmachine 2e9 32768 4194304\ncsr 1e-9 0.25\n");
        let (m, p) = read_profile(text.as_bytes()).unwrap();
        assert_eq!(m.bandwidth, 2e9);
        assert_eq!(p.get(KernelKey::Csr).nof, 0.25);
    }
}
