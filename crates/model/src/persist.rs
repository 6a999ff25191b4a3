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
//! bcsrmasked <r> <c> <scalar|simd> <t_b> <nof>
//! bcsdmasked <b> <scalar|simd> <t_b> <nof>
//! sell <c> <scalar|simd> <t_b> <nof>
//! ```
//!
//! Files written while the workspace still had a delta-encoded CSR
//! format also carry `csrdelta <scalar|simd> <t_b> <nof>` lines. The
//! reader checks and skips them, so those calibrations keep loading.

use crate::config::KernelKey;
use crate::machine::MachineProfile;
use crate::profile::{BlockTimes, KernelProfile};
use spmv_core::{Error, Result};
use spmv_kernels::{BlockShape, KernelImpl};
use std::io::{BufRead, Write};
use std::path::Path;

const MAGIC: &str = "blocked-spmv-profile v1";

fn imp_label(imp: KernelImpl) -> &'static str {
    match imp {
        KernelImpl::Scalar => "scalar",
        KernelImpl::Simd => "simd",
    }
}

fn parse_imp(s: &str) -> Result<KernelImpl> {
    match s {
        "scalar" => Ok(KernelImpl::Scalar),
        "simd" => Ok(KernelImpl::Simd),
        other => Err(Error::InvalidStructure(format!(
            "unknown kernel implementation `{other}`"
        ))),
    }
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
            KernelKey::BcsrMasked { shape, imp } => writeln!(
                w,
                "bcsrmasked {} {} {} {:e} {:e}",
                shape.r,
                shape.c,
                imp_label(imp),
                times.t_b,
                times.nof
            )?,
            KernelKey::BcsdMasked { b, imp } => writeln!(
                w,
                "bcsdmasked {} {} {:e} {:e}",
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

    let (_, first) = lines
        .next()
        .ok_or_else(|| bad(1, "empty profile file"))?;
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
        let parse_f64 = |s: &str| -> Result<f64> {
            s.parse().map_err(|_| bad(lineno, "bad float"))
        };
        match tok[0] {
            "machine" if tok.len() == 4 => {
                machine = Some(MachineProfile {
                    bandwidth: parse_f64(tok[1])?,
                    l1_bytes: tok[2].parse().map_err(|_| bad(lineno, "bad l1"))?,
                    llc_bytes: tok[3].parse().map_err(|_| bad(lineno, "bad llc"))?,
                });
            }
            "csr" if tok.len() == 3 => profile.set(
                KernelKey::Csr,
                BlockTimes {
                    t_b: parse_f64(tok[1])?,
                    nof: parse_f64(tok[2])?,
                },
            ),
            "bcsr" if tok.len() == 6 => {
                let r: usize = tok[1].parse().map_err(|_| bad(lineno, "bad r"))?;
                let c: usize = tok[2].parse().map_err(|_| bad(lineno, "bad c"))?;
                let shape = BlockShape::new(r, c)
                    .map_err(|e| bad(lineno, &e.to_string()))?;
                profile.set(
                    KernelKey::Bcsr {
                        shape,
                        imp: parse_imp(tok[3])?,
                    },
                    BlockTimes {
                        t_b: parse_f64(tok[4])?,
                        nof: parse_f64(tok[5])?,
                    },
                );
            }
            "bcsd" if tok.len() == 5 => {
                let b: u8 = tok[1].parse().map_err(|_| bad(lineno, "bad b"))?;
                if !(1..=8).contains(&b) {
                    return Err(bad(lineno, "bcsd size out of range"));
                }
                profile.set(
                    KernelKey::Bcsd {
                        b,
                        imp: parse_imp(tok[2])?,
                    },
                    BlockTimes {
                        t_b: parse_f64(tok[3])?,
                        nof: parse_f64(tok[4])?,
                    },
                );
            }
            // The removed delta-encoded CSR kernel: well-formed lines of
            // older files are skipped, malformed ones still fail the file.
            "csrdelta" if tok.len() == 4 => {
                parse_imp(tok[1])?;
                parse_f64(tok[2])?;
                parse_f64(tok[3])?;
            }
            "bcsrmasked" if tok.len() == 6 => {
                let r: usize = tok[1].parse().map_err(|_| bad(lineno, "bad r"))?;
                let c: usize = tok[2].parse().map_err(|_| bad(lineno, "bad c"))?;
                let shape = BlockShape::new(r, c)
                    .map_err(|e| bad(lineno, &e.to_string()))?;
                profile.set(
                    KernelKey::BcsrMasked {
                        shape,
                        imp: parse_imp(tok[3])?,
                    },
                    BlockTimes {
                        t_b: parse_f64(tok[4])?,
                        nof: parse_f64(tok[5])?,
                    },
                );
            }
            "bcsdmasked" if tok.len() == 5 => {
                let b: u8 = tok[1].parse().map_err(|_| bad(lineno, "bad b"))?;
                if !(1..=8).contains(&b) {
                    return Err(bad(lineno, "bcsdmasked size out of range"));
                }
                profile.set(
                    KernelKey::BcsdMasked {
                        b,
                        imp: parse_imp(tok[2])?,
                    },
                    BlockTimes {
                        t_b: parse_f64(tok[3])?,
                        nof: parse_f64(tok[4])?,
                    },
                );
            }
            "sell" if tok.len() == 5 => {
                let c: u8 = tok[1].parse().map_err(|_| bad(lineno, "bad c"))?;
                if !spmv_kernels::SELL_HEIGHTS.contains(&(c as usize)) {
                    return Err(bad(lineno, "sell slice height out of range"));
                }
                profile.set(
                    KernelKey::Sell {
                        c,
                        imp: parse_imp(tok[2])?,
                    },
                    BlockTimes {
                        t_b: parse_f64(tok[3])?,
                        nof: parse_f64(tok[4])?,
                    },
                );
            }
            other => return Err(bad(lineno, &format!("unknown record `{other}`"))),
        }
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
        let bad_record = format!("{MAGIC}\nmachine 1e9 1 2\nwat 1 2 3\n");
        assert!(read_profile(bad_record.as_bytes()).is_err());
        let no_machine = format!("{MAGIC}\ncsr 1e-9 0.5\n");
        assert!(read_profile(no_machine.as_bytes()).is_err());
        let bad_shape = format!("{MAGIC}\nmachine 1e9 1 2\nbcsr 9 9 scalar 1e-9 0.5\n");
        assert!(read_profile(bad_shape.as_bytes()).is_err());
        let bad_sell = format!("{MAGIC}\nmachine 1e9 1 2\nsell 3 scalar 1e-9 0.5\n");
        assert!(read_profile(bad_sell.as_bytes()).is_err());
        for bad_delta in ["csrdelta wide 1e-9 0.5", "csrdelta simd x 0.5", "csrdelta simd 1e-9"] {
            let text = format!("{MAGIC}\nmachine 1e9 1 2\n{bad_delta}\n");
            assert!(read_profile(text.as_bytes()).is_err(), "{bad_delta}");
        }
    }

    #[test]
    fn legacy_csrdelta_lines_are_skipped() {
        let text = format!(
            "{MAGIC}\nmachine 2e9 32768 4194304\ncsr 1e-9 0.25\n\
             csrdelta scalar 5.9e-10 8.1e-1\ncsrdelta simd 2.7e-10 1e0\n"
        );
        let (_, p) = read_profile(text.as_bytes()).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.get(KernelKey::Csr).nof, 0.25);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = format!("{MAGIC}\n# comment\n\nmachine 2e9 32768 4194304\ncsr 1e-9 0.25\n");
        let (m, p) = read_profile(text.as_bytes()).unwrap();
        assert_eq!(m.bandwidth, 2e9);
        assert_eq!(p.get(KernelKey::Csr).nof, 0.25);
    }
}
