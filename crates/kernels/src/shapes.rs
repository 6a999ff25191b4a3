//! The fixed-size block search space and kernel-implementation labels.

use core::fmt;
use core::str::FromStr;
use spmv_core::{Error, Result};

/// Maximum number of elements in a fixed-size block.
///
/// "We used blocks with up to eight elements … since preliminary
/// experiments showed that \[larger\] blocks cannot offer any speedup over
/// standard CSR" (§V-A).
pub const MAX_BLOCK_ELEMS: usize = 8;

/// BCSD diagonal block sizes explored by the search (b = 1 is degenerate
/// CSR-like storage and is excluded, matching the BCSR treatment of 1×1).
pub const BCSD_SIZES: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];

/// A two-dimensional block shape `r x c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockShape {
    /// Block rows.
    pub r: u8,
    /// Block columns.
    pub c: u8,
}

impl BlockShape {
    /// Creates a shape, validating it against the supported search space.
    pub fn new(r: usize, c: usize) -> Result<Self> {
        if r == 0 || c == 0 || r * c > MAX_BLOCK_ELEMS || r > 8 || c > 8 {
            return Err(Error::UnsupportedShape { r, c });
        }
        Ok(BlockShape {
            r: r as u8,
            c: c as u8,
        })
    }

    /// Block rows as `usize`.
    #[inline]
    pub fn rows(self) -> usize {
        self.r as usize
    }

    /// Block columns as `usize`.
    #[inline]
    pub fn cols(self) -> usize {
        self.c as usize
    }

    /// Number of elements per block, `r * c`.
    #[inline]
    pub fn elems(self) -> usize {
        self.rows() * self.cols()
    }

    /// Whether this is the degenerate 1×1 shape the models use for CSR.
    #[inline]
    pub fn is_unit(self) -> bool {
        self.r == 1 && self.c == 1
    }

    /// The 1×1 shape (CSR "treated as a degenerate blocking method", §IV).
    pub const UNIT: BlockShape = BlockShape { r: 1, c: 1 };

    /// The paper's BCSR search space: every shape with `r * c <= 8`
    /// except 1×1 — 19 shapes, ordered by element count then rows.
    pub fn search_space() -> Vec<BlockShape> {
        let mut out = Vec::new();
        for r in 1..=MAX_BLOCK_ELEMS {
            for c in 1..=MAX_BLOCK_ELEMS {
                if r * c <= MAX_BLOCK_ELEMS && (r, c) != (1, 1) {
                    out.push(BlockShape {
                        r: r as u8,
                        c: c as u8,
                    });
                }
            }
        }
        out.sort_by_key(|s| (s.elems(), s.r));
        out
    }
}

impl fmt::Display for BlockShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.r, self.c)
    }
}

impl FromStr for BlockShape {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self> {
        let err = || Error::InvalidStructure(format!("cannot parse block shape `{s}`"));
        let (r, c) = s.split_once('x').ok_or_else(err)?;
        let r: usize = r.trim().parse().map_err(|_| err())?;
        let c: usize = c.trim().parse().map_err(|_| err())?;
        BlockShape::new(r, c)
    }
}

/// Which kernel implementation a configuration uses.
///
/// The paper reports four single-threaded configurations: `dp`, `dp-simd`,
/// `sp`, `sp-simd` — precision × implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelImpl {
    /// Plain unrolled kernels.
    Scalar,
    /// SSE2-vectorized kernels (scalar fallback off x86-64).
    Simd,
}

impl KernelImpl {
    /// Suffix used in the paper's configuration labels (`""` / `"-simd"`).
    pub const fn suffix(self) -> &'static str {
        match self {
            KernelImpl::Scalar => "",
            KernelImpl::Simd => "-simd",
        }
    }

    /// Both implementations, scalar first.
    pub const ALL: [KernelImpl; 2] = [KernelImpl::Scalar, KernelImpl::Simd];
}

impl fmt::Display for KernelImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelImpl::Scalar => "scalar",
            KernelImpl::Simd => "simd",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_space_has_19_shapes() {
        let shapes = BlockShape::search_space();
        assert_eq!(shapes.len(), 19);
        assert!(!shapes.contains(&BlockShape::UNIT));
        assert!(shapes.iter().all(|s| s.elems() <= MAX_BLOCK_ELEMS));
        // Every admissible (r, c) is present.
        for r in 1..=8usize {
            for c in 1..=8usize {
                let expect = r * c <= 8 && (r, c) != (1, 1);
                let present = shapes.iter().any(|s| s.rows() == r && s.cols() == c);
                assert_eq!(present, expect, "shape {r}x{c}");
            }
        }
    }

    #[test]
    fn rejects_oversized_shapes() {
        assert!(BlockShape::new(3, 3).is_err());
        assert!(BlockShape::new(0, 2).is_err());
        assert!(BlockShape::new(9, 1).is_err());
        assert!(BlockShape::new(2, 4).is_ok());
    }

    #[test]
    fn display_parse_roundtrip() {
        for s in BlockShape::search_space() {
            let parsed: BlockShape = s.to_string().parse().unwrap();
            assert_eq!(parsed, s);
        }
        assert!("3x3".parse::<BlockShape>().is_err());
        assert!("junk".parse::<BlockShape>().is_err());
    }

    #[test]
    fn unit_shape() {
        assert!(BlockShape::UNIT.is_unit());
        assert_eq!(BlockShape::UNIT.elems(), 1);
    }

    #[test]
    fn impl_suffixes_match_paper_labels() {
        assert_eq!(format!("dp{}", KernelImpl::Scalar.suffix()), "dp");
        assert_eq!(format!("dp{}", KernelImpl::Simd.suffix()), "dp-simd");
    }

    #[test]
    fn bcsd_sizes_cover_2_to_8() {
        assert_eq!(BCSD_SIZES.to_vec(), (2..=8).collect::<Vec<_>>());
    }
}
