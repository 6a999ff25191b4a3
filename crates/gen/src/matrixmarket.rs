//! MatrixMarket coordinate-format I/O.
//!
//! Reads the `.mtx` files distributed by the University of Florida
//! (Tim Davis) sparse matrix collection — the paper's matrix source — so
//! the harness can run on the original suite when the files are present.
//! Supports `real`, `integer`, and `pattern` fields with `general`,
//! `symmetric`, and `skew-symmetric` symmetry; writing always emits
//! `real general`.

use spmv_core::{Coo, Csr, MatrixShape, Scalar, MAX_INDEX};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors from MatrixMarket parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed content, with the 1-based line number.
    Parse {
        /// Line where parsing failed.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
}

impl fmt::Display for MmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<io::Error> for MmError {
    fn from(e: io::Error) -> Self {
        MmError::Io(e)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Reads a MatrixMarket coordinate file.
pub fn read_path<T: Scalar>(path: impl AsRef<Path>) -> Result<Csr<T>, MmError> {
    read(BufReader::new(File::open(path)?))
}

/// Reads a MatrixMarket coordinate matrix from any buffered reader.
pub fn read<T: Scalar, R: BufRead>(mut reader: R) -> Result<Csr<T>, MmError> {
    let mut line = String::new();
    let mut lineno = 0usize;

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    lineno += 1;
    reader.read_line(&mut line)?;
    let parse_err = |lineno: usize, msg: &str| MmError::Parse {
        line: lineno,
        msg: msg.to_string(),
    };
    let header: Vec<String> = line
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if header.len() != 5 || header[0] != "%%matrixmarket" {
        return Err(parse_err(lineno, "missing %%MatrixMarket header"));
    }
    if header[1] != "matrix" || header[2] != "coordinate" {
        return Err(parse_err(
            lineno,
            "only `matrix coordinate` objects are supported",
        ));
    }
    let field = match header[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => {
            return Err(parse_err(
                lineno,
                &format!("unsupported field `{other}` (complex is not supported)"),
            ))
        }
    };
    let symmetry = match header[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(parse_err(
                lineno,
                &format!("unsupported symmetry `{other}`"),
            ))
        }
    };

    // Skip comments, then read the size line.
    let (n_rows, n_cols, nnz) = loop {
        line.clear();
        lineno += 1;
        if reader.read_line(&mut line)? == 0 {
            return Err(parse_err(lineno, "unexpected end of file before size line"));
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let n: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad row count"))?;
        let m: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad column count"))?;
        let z: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad nonzero count"))?;
        // Every format indexes rows and columns with `u32`.
        for (what, count) in [("row", n), ("column", m)] {
            if count > MAX_INDEX {
                return Err(parse_err(
                    lineno,
                    &format!("{what} count {count} exceeds the u32 index range"),
                ));
            }
        }
        break (n, m, z);
    };

    // Pre-reserve for the declared entry count, but never trust it with
    // an unbounded allocation: a corrupt size line (say, nnz copied from
    // a 64-bit field of garbage) must surface as a parse error when the
    // body runs short, not abort the process inside the allocator. The
    // entry vector grows on demand past the clamp, so honest files above
    // it only lose the pre-reservation. The saturating doubling keeps
    // symmetric capacity math from overflowing for the same inputs.
    const MAX_PREALLOC: usize = 1 << 22;
    let declared = if symmetry == Symmetry::General {
        nnz
    } else {
        nnz.saturating_mul(2)
    };
    let mut coo = Coo::<T>::with_capacity(n_rows, n_cols, declared.min(MAX_PREALLOC));
    let mut seen = 0usize;
    while seen < nnz {
        line.clear();
        lineno += 1;
        if reader.read_line(&mut line)? == 0 {
            return Err(parse_err(
                lineno,
                &format!("expected {nnz} entries, found {seen}"),
            ));
        }
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let i: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad row index"))?;
        let j: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad column index"))?;
        if i == 0 || j == 0 {
            return Err(parse_err(lineno, "indices are 1-based"));
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| parse_err(lineno, "bad value"))?,
        };
        coo.push(i - 1, j - 1, T::from_f64(v))
            .map_err(|e| parse_err(lineno, &e.to_string()))?;
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if i != j => {
                coo.push(j - 1, i - 1, T::from_f64(v))
                    .map_err(|e| parse_err(lineno, &e.to_string()))?;
            }
            Symmetry::SkewSymmetric if i != j => {
                coo.push(j - 1, i - 1, T::from_f64(-v))
                    .map_err(|e| parse_err(lineno, &e.to_string()))?;
            }
            _ => {}
        }
        seen += 1;
    }
    Ok(Csr::from_coo(&coo))
}

/// Writes a CSR matrix as `real general` coordinate MatrixMarket.
pub fn write_path<T: Scalar>(csr: &Csr<T>, path: impl AsRef<Path>) -> io::Result<()> {
    write(csr, BufWriter::new(File::create(path)?))
}

/// Writes a CSR matrix to any writer as `real general` coordinate
/// MatrixMarket.
pub fn write<T: Scalar, W: Write>(csr: &Csr<T>, mut w: W) -> io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% written by blocked-spmv")?;
    writeln!(w, "{} {} {}", csr.n_rows(), csr.n_cols(), csr.nnz())?;
    for (i, j, v) in csr.iter() {
        writeln!(w, "{} {} {:e}", i + 1, j + 1, v.to_f64())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    fn sample() -> Csr<f64> {
        Csr::from_coo(
            &Coo::from_triplets(3, 4, vec![(0, 0, 1.5), (0, 3, -2.0), (2, 1, 0.25)]).unwrap(),
        )
    }

    #[test]
    fn roundtrip() {
        let csr = sample();
        let mut buf = Vec::new();
        write(&csr, &mut buf).unwrap();
        let back: Csr<f64> = read(&buf[..]).unwrap();
        assert_eq!(csr, back);
    }

    #[test]
    fn reads_pattern_matrices() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let csr: Csr<f64> = read(text.as_bytes()).unwrap();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.to_dense().get(0, 0), 1.0);
    }

    #[test]
    fn expands_symmetric_matrices() {
        let text =
            "%%MatrixMarket matrix coordinate real symmetric\n% comment\n3 3 2\n2 1 5.0\n3 3 1.0\n";
        let csr: Csr<f64> = read(text.as_bytes()).unwrap();
        assert_eq!(csr.nnz(), 3); // (1,0), (0,1), (2,2)
        assert_eq!(csr.to_dense().get(0, 1), 5.0);
        assert_eq!(csr.to_dense().get(1, 0), 5.0);
    }

    #[test]
    fn expands_skew_symmetric_matrices() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n";
        let csr: Csr<f64> = read(text.as_bytes()).unwrap();
        assert_eq!(csr.to_dense().get(1, 0), 3.0);
        assert_eq!(csr.to_dense().get(0, 1), -3.0);
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(read::<f64, _>("garbage\n1 1 0\n".as_bytes()).is_err());
        assert!(read::<f64, _>(
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n".as_bytes()
        )
        .is_err());
        assert!(
            read::<f64, _>("%%MatrixMarket matrix array real general\n1 1\n".as_bytes()).is_err()
        );
    }

    #[test]
    fn rejects_truncated_files() {
        let text = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n";
        let err = read::<f64, _>(text.as_bytes()).unwrap_err();
        assert!(matches!(err, MmError::Parse { .. }));
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read::<f64, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_indices_with_line_numbers() {
        // Indices past the declared dimensions are structured errors
        // carrying the offending line, not panics.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        match read::<f64, _>(text.as_bytes()).unwrap_err() {
            MmError::Parse { line, msg } => {
                assert_eq!(line, 3);
                assert!(msg.contains("outside"), "msg: {msg}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n";
        // The symmetric mirror entry (1,3) is the out-of-range one.
        assert!(read::<f64, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_overflowing_indices_and_counts() {
        // Numbers that do not fit usize fail the parse, they do not wrap.
        let huge = "99999999999999999999999999999";
        let text = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n{huge} 1 1.0\n");
        assert!(matches!(
            read::<f64, _>(text.as_bytes()).unwrap_err(),
            MmError::Parse { line: 3, .. }
        ));
        let text = format!("%%MatrixMarket matrix coordinate real general\n{huge} 2 1\n1 1 1.0\n");
        assert!(read::<f64, _>(text.as_bytes()).is_err());
        // Counts that fit usize but not the u32 index type are parse
        // errors on the size line, not a panic in `Coo::new`.
        for size in ["5000000000 3 0", "3 5000000000 0"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{size}\n");
            match read::<f64, _>(text.as_bytes()).unwrap_err() {
                MmError::Parse { line, msg } => {
                    assert_eq!(line, 2, "{size}");
                    assert!(msg.contains("exceeds the u32 index range"), "msg: {msg}");
                }
                other => panic!("expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn absurd_declared_nnz_fails_without_exhausting_memory() {
        // The size line claims ~1e18 entries; the reader must clamp its
        // pre-reservation and fail at EOF instead of aborting in the
        // allocator. `symmetric` doubles the declared count, covering the
        // saturating multiply too.
        for sym in ["general", "symmetric"] {
            let text = format!(
                "%%MatrixMarket matrix coordinate real {sym}\n1000 1000 999999999999999999\n1 1 1.0\n"
            );
            match read::<f64, _>(text.as_bytes()).unwrap_err() {
                MmError::Parse { msg, .. } => {
                    assert!(msg.contains("expected"), "msg: {msg}")
                }
                other => panic!("expected Parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_malformed_size_and_value_lines() {
        // Non-numeric size fields.
        let text = "%%MatrixMarket matrix coordinate real general\ntwo 2 1\n1 1 1.0\n";
        assert!(read::<f64, _>(text.as_bytes()).is_err());
        // Missing nnz field.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1.0\n";
        assert!(read::<f64, _>(text.as_bytes()).is_err());
        // Missing value on a real entry.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n";
        assert!(read::<f64, _>(text.as_bytes()).is_err());
        // Value that is not a number.
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n";
        assert!(read::<f64, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_empty_input_and_missing_size_line() {
        assert!(read::<f64, _>("".as_bytes()).is_err());
        let text = "%%MatrixMarket matrix coordinate real general\n% only comments\n";
        match read::<f64, _>(text.as_bytes()).unwrap_err() {
            MmError::Parse { msg, .. } => assert!(msg.contains("end of file"), "msg: {msg}"),
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n% a\n\n% b\n2 2 1\n% mid\n1 2 7.0\n";
        let csr: Csr<f64> = read(text.as_bytes()).unwrap();
        assert_eq!(csr.to_dense().get(0, 1), 7.0);
    }

    #[test]
    fn file_roundtrip() {
        let csr = sample();
        let dir = std::env::temp_dir().join("spmv_mm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.mtx");
        write_path(&csr, &path).unwrap();
        let back: Csr<f64> = read_path(&path).unwrap();
        assert_eq!(csr, back);
        std::fs::remove_file(&path).ok();
    }
}
