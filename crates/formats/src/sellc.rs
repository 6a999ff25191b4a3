//! SELL-C-σ: sliced ELLPACK with σ-windowed row sorting.
//!
//! SELL-C-σ (Kreutzer et al., arXiv:1307.6209) groups `C` consecutive
//! rows into a *slice*, pads every row of a slice to the slice's widest
//! row, and stores the slice column-major so one vector load serves `C`
//! adjacent rows. To keep slices narrow, rows are first stably sorted by
//! descending length — but only within windows of `σ` consecutive rows,
//! so locality of the input vector survives. The permutation is kept
//! explicitly and SpMV scatters each accumulator straight to its
//! original row, so `y` comes out unscrambled and — because every lane
//! runs the exact CSR per-row chain (see [`spmv_kernels::sell`]) —
//! bitwise equal to CSR.
//!
//! Cost shape: where the blocked formats trade index bytes for padding,
//! SELL-C-σ is *padding-dominated* — it streams one index per stored
//! entry (like CSR) plus
//! `Σ_s (w_s·C) − nnz` padded value slots, where `w_s` is slice `s`'s
//! width. σ controls that padding: σ = 1 stores rows unsorted (maximum
//! padding for irregular rows), σ = `n_rows` sorts globally (minimum
//! padding, most scrambled gather/scatter locality).

use crate::{SpMvAcc, SpMvMultiAcc};
use spmv_core::{Csr, Error, Index, MatrixShape, Result, SpMv, SpMvMulti, MAX_INDEX};
use spmv_kernels::sell::{sell_slice_kernel, sell_slice_multi_kernel, SELL_HEIGHTS};
use spmv_kernels::simd::SimdScalar;
use spmv_kernels::KernelImpl;

/// Sentinel σ meaning "one window spanning all rows" (global sort).
/// Stored as `usize::MAX` so configurations stay `Copy` and matrices of
/// any height share one enumeration entry.
pub const SELL_SIGMA_FULL: usize = usize::MAX;

/// The σ window values the extended search space enumerates for slice
/// height `c`: unsorted, one-slice windows, a locality-preserving 64-row
/// window, and the global sort.
pub fn sell_sigmas(c: usize) -> [usize; 4] {
    [1, c, 64, SELL_SIGMA_FULL]
}

/// A sparse matrix in SELL-C-σ format.
///
/// Storage: rows are stably sorted by descending length within σ-row
/// windows; `perm[p]` is the original row at sorted position `p`.
/// Slice `s` covers sorted positions `s*c..(s+1)*c` (the tail slice
/// keeps `c` lanes, the excess lanes simply have length 0), stores
/// `width(s) = max lane length` columns, and lays entry `(j, lane)` at
/// `slice_ptr[s] + j*c + lane` in `val`/`col` (column-major within the
/// slice). Padded slots hold an explicit zero value and column 0 but are
/// never accumulated — the kernel guards on `lens`.
///
/// ```
/// use spmv_core::{Coo, Csr, SpMv};
/// use spmv_formats::SellCSigma;
/// use spmv_kernels::KernelImpl;
///
/// let csr = Csr::from_coo(&Coo::from_triplets(5, 5, vec![
///     (0, 0, 1.0), (0, 1, 2.0), (0, 4, 3.0), (2, 2, 4.0), (4, 0, 5.0),
/// ]).unwrap());
/// let sell = SellCSigma::from_csr(&csr, 4, 4, KernelImpl::Scalar);
/// // Bitwise-identical results, rows back in original order.
/// assert_eq!(sell.spmv(&[1.0; 5]), csr.spmv(&[1.0; 5]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SellCSigma<T> {
    n_rows: usize,
    n_cols: usize,
    c: usize,
    sigma: usize,
    imp: KernelImpl,
    /// Entry offset of each slice's storage; `n_slices + 1` entries,
    /// each a multiple of `c` apart (`width(s) * c` entries per slice).
    slice_ptr: Vec<Index>,
    /// True row length per lane, `n_slices * c` entries (0 for the
    /// tail slice's excess lanes).
    lens: Vec<Index>,
    /// Column index per stored entry, column-major within each slice;
    /// padded slots hold 0.
    col: Vec<Index>,
    /// Value per stored entry, same layout; padded slots hold zero.
    val: Vec<T>,
    /// Sorted position → original row; SpMV scatters through this, so
    /// the output never needs a separate unpermute pass.
    perm: Vec<Index>,
    nnz_orig: usize,
}

impl<T: SimdScalar> SellCSigma<T> {
    /// Converts `csr` to SELL-C-σ with slice height `c` and sorting
    /// window `sigma` (rows; [`SELL_SIGMA_FULL`] sorts globally).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not one of [`SELL_HEIGHTS`], if `sigma == 0`, or
    /// if the padded entry count overflows the `u32` index type.
    pub fn from_csr(csr: &Csr<T>, c: usize, sigma: usize, imp: KernelImpl) -> Self {
        assert!(
            SELL_HEIGHTS.contains(&c),
            "SELL slice height must be one of {SELL_HEIGHTS:?}, got {c}"
        );
        assert!(sigma > 0, "SELL sorting window must be at least 1");
        let n_rows = csr.n_rows();
        let n_cols = csr.n_cols();
        let n_slices = n_rows.div_ceil(c);

        // σ-windowed stable sort by descending row length. Stability
        // keeps equal-length rows in original order, which pins the
        // permutation (and therefore the bitwise output of any
        // row-order-sensitive consumer) uniquely.
        let sigma_eff = if sigma == SELL_SIGMA_FULL {
            n_rows.max(1)
        } else {
            sigma
        };
        let mut perm: Vec<Index> = (0..n_rows as Index).collect();
        for w0 in (0..n_rows).step_by(sigma_eff) {
            let w1 = (w0 + sigma_eff).min(n_rows);
            perm[w0..w1].sort_by_key(|&i| core::cmp::Reverse(csr.row_nnz(i as usize)));
        }

        let mut slice_ptr: Vec<Index> = Vec::with_capacity(n_slices + 1);
        slice_ptr.push(0);
        let mut lens: Vec<Index> = Vec::with_capacity(n_slices * c);
        let mut val: Vec<T> = Vec::new();
        let mut col: Vec<Index> = Vec::new();
        for s in 0..n_slices {
            let mut width = 0usize;
            for lane in 0..c {
                let pos = s * c + lane;
                let len = if pos < n_rows {
                    csr.row_nnz(perm[pos] as usize)
                } else {
                    0
                };
                lens.push(len as Index);
                width = width.max(len);
            }
            let base = val.len();
            assert!(
                base + width * c <= MAX_INDEX,
                "SELL-C-\u{3c3} padded entry count overflows u32"
            );
            val.resize(base + width * c, T::ZERO);
            col.resize(base + width * c, 0);
            for lane in 0..c {
                let pos = s * c + lane;
                if pos >= n_rows {
                    continue;
                }
                let (rcols, rvals) = csr.row(perm[pos] as usize);
                for (j, (&cj, &vj)) in rcols.iter().zip(rvals).enumerate() {
                    val[base + j * c + lane] = vj;
                    col[base + j * c + lane] = cj;
                }
            }
            slice_ptr.push(val.len() as Index);
        }

        SellCSigma {
            n_rows,
            n_cols,
            c,
            sigma,
            imp,
            slice_ptr,
            lens,
            col,
            val,
            perm,
            nnz_orig: csr.nnz(),
        }
    }

    /// The slice height `C`.
    pub fn slice_height(&self) -> usize {
        self.c
    }

    /// The sorting window σ as configured ([`SELL_SIGMA_FULL`] for the
    /// global sort).
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// The kernel implementation used by `spmv`.
    pub fn kernel_impl(&self) -> KernelImpl {
        self.imp
    }

    /// Switches between the scalar and SIMD kernel in place.
    pub fn set_kernel_impl(&mut self, imp: KernelImpl) {
        self.imp = imp;
    }

    /// Number of slices, `ceil(n_rows / c)`.
    pub fn n_slices(&self) -> usize {
        self.slice_ptr.len() - 1
    }

    /// Total slice-columns `Σ_s width(s)` — the models' block count
    /// `nb` for this format (one "block" is one column of `c` slots).
    pub fn n_blocks(&self) -> usize {
        self.val.len() / self.c
    }

    /// Explicit padding zeros stored.
    pub fn padding(&self) -> usize {
        self.val.len() - self.nnz_orig
    }

    /// Nonzeros of the source matrix.
    pub fn nnz_orig(&self) -> usize {
        self.nnz_orig
    }

    /// Fraction of stored slots holding a true nonzero.
    pub fn occupancy(&self) -> f64 {
        if self.val.is_empty() {
            1.0
        } else {
            self.nnz_orig as f64 / self.val.len() as f64
        }
    }

    /// The row permutation: `perm()[p]` is the original row stored at
    /// sorted position `p`. σ = 1 yields the identity.
    pub fn perm(&self) -> &[Index] {
        &self.perm
    }

    /// Converts back to CSR (inverse of [`SellCSigma::from_csr`] up to
    /// explicit zero values, which CSR construction drops).
    pub fn to_csr(&self) -> Csr<T> {
        let mut coo = spmv_core::Coo::with_capacity(self.n_rows, self.n_cols, self.nnz_orig);
        for s in 0..self.n_slices() {
            let base = self.slice_ptr[s] as usize;
            for lane in 0..self.c {
                let pos = s * self.c + lane;
                if pos >= self.n_rows {
                    continue;
                }
                let row = self.perm[pos] as usize;
                for j in 0..self.lens[pos] as usize {
                    let v = self.val[base + j * self.c + lane];
                    if v != T::ZERO {
                        let cj = self.col[base + j * self.c + lane] as usize;
                        coo.push(row, cj, v).expect("inside matrix");
                    }
                }
            }
        }
        Csr::from_coo(&coo)
    }

    /// Checks the structural invariants of the format.
    pub fn validate(&self) -> Result<()> {
        let n_slices = self.n_rows.div_ceil(self.c);
        if self.slice_ptr.len() != n_slices + 1 {
            return Err(Error::InvalidStructure(format!(
                "slice_ptr has {} entries, expected {}",
                self.slice_ptr.len(),
                n_slices + 1
            )));
        }
        if self.slice_ptr.first() != Some(&0)
            || *self.slice_ptr.last().unwrap() as usize != self.val.len()
        {
            return Err(Error::InvalidStructure("slice_ptr endpoints wrong".into()));
        }
        if self.lens.len() != n_slices * self.c {
            return Err(Error::InvalidStructure(
                "one length per lane required".into(),
            ));
        }
        if self.col.len() != self.val.len() {
            return Err(Error::InvalidStructure("col and val lengths differ".into()));
        }
        if self.perm.len() != self.n_rows {
            return Err(Error::InvalidStructure("perm length mismatch".into()));
        }
        let mut seen = vec![false; self.n_rows];
        for &p in &self.perm {
            if p as usize >= self.n_rows || seen[p as usize] {
                return Err(Error::InvalidStructure(
                    "perm is not a permutation of the rows".into(),
                ));
            }
            seen[p as usize] = true;
        }
        for s in 0..n_slices {
            let span = self.slice_ptr[s + 1].checked_sub(self.slice_ptr[s]);
            let Some(span) = span.map(|v| v as usize) else {
                return Err(Error::InvalidStructure("slice_ptr not monotone".into()));
            };
            if !span.is_multiple_of(self.c) {
                return Err(Error::InvalidStructure(format!(
                    "slice {s}: storage not a multiple of the slice height"
                )));
            }
            let width = span / self.c;
            let lanes = &self.lens[s * self.c..(s + 1) * self.c];
            let max_len = lanes.iter().copied().max().unwrap_or(0) as usize;
            if max_len != width {
                return Err(Error::InvalidStructure(format!(
                    "slice {s}: width {width} disagrees with max lane length {max_len}"
                )));
            }
            let base = self.slice_ptr[s] as usize;
            for (lane, &len) in lanes.iter().enumerate() {
                let pos = s * self.c + lane;
                if pos >= self.n_rows {
                    if len != 0 {
                        return Err(Error::InvalidStructure(format!(
                            "slice {s}: lane {lane} past the last row has nonzero length"
                        )));
                    }
                    continue;
                }
                for j in 0..width {
                    let idx = base + j * self.c + lane;
                    if j < len as usize {
                        if self.col[idx] as usize >= self.n_cols {
                            return Err(Error::InvalidStructure(format!(
                                "slice {s} lane {lane}: column out of bounds"
                            )));
                        }
                    } else if self.val[idx] != T::ZERO {
                        return Err(Error::InvalidStructure(format!(
                            "slice {s} lane {lane}: padded slot holds a nonzero"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Shared single-vector pass: computes each slice's `c` accumulator
    /// chains and hands them to `write` as `(original row, chain sum)`.
    /// Empty slices still report their rows (with a zero sum), so the
    /// assign path covers every output element.
    fn spmv_each<F: FnMut(usize, T)>(&self, x: &[T], mut write: F) {
        let kern = sell_slice_kernel::<T>(self.c, self.imp);
        let mut buf = [T::ZERO; 8];
        for s in 0..self.n_slices() {
            let range = self.slice_ptr[s] as usize..self.slice_ptr[s + 1] as usize;
            kern(
                &self.val[range.clone()],
                &self.col[range],
                &self.lens[s * self.c..(s + 1) * self.c],
                x,
                &mut buf[..self.c],
            );
            for (lane, &acc) in buf[..self.c].iter().enumerate() {
                let pos = s * self.c + lane;
                if pos < self.n_rows {
                    write(self.perm[pos] as usize, acc);
                }
            }
        }
    }

    /// Shared k-tuple pass over `kc` vectors read as kc-tuples; `write`
    /// receives `(vector index, original row, chain sum)`.
    fn spmv_tuples_each<F: FnMut(usize, usize, T)>(&self, xi: &[T], kc: usize, mut write: F) {
        let kern = sell_slice_multi_kernel::<T>(self.c, kc)
            .unwrap_or_else(|| panic!("no k-tuple kernel for {kc} vectors"));
        let mut buf = [T::ZERO; 64];
        for s in 0..self.n_slices() {
            let range = self.slice_ptr[s] as usize..self.slice_ptr[s + 1] as usize;
            kern(
                &self.val[range.clone()],
                &self.col[range],
                &self.lens[s * self.c..(s + 1) * self.c],
                xi,
                &mut buf[..self.c * kc],
            );
            for t in 0..kc {
                for lane in 0..self.c {
                    let pos = s * self.c + lane;
                    if pos < self.n_rows {
                        write(t, self.perm[pos] as usize, buf[t * self.c + lane]);
                    }
                }
            }
        }
    }
}

impl<T> MatrixShape for SellCSigma<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: SimdScalar> SpMv<T> for SellCSigma<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        // Every original row is scattered exactly once, so a direct
        // assignment covers all of `y` — same write semantics (and the
        // same `-0.0` results) as `Csr::spmv_into`.
        self.spmv_each(x, |row, acc| y[row] = acc);
    }

    fn nnz_stored(&self) -> usize {
        self.val.len()
    }

    fn matrix_bytes(&self) -> usize {
        self.val.len() * T::BYTES
            + (self.col.len() + self.slice_ptr.len() + self.lens.len() + self.perm.len())
                * core::mem::size_of::<Index>()
    }
}

impl<T: SimdScalar> SpMvAcc<T> for SellCSigma<T> {
    fn spmv_acc(&self, x: &[T], y: &mut [T]) {
        spmv_core::traits::check_spmv_dims(self, x, y);
        self.spmv_each(x, |row, acc| y[row] += acc);
    }
}

impl<T: SimdScalar> SpMvMulti<T> for SellCSigma<T> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, x, y, k);
        let n = self.n_rows;
        spmv_core::multi::chunked(
            x,
            y,
            k,
            |xc, yc| self.spmv_into(xc, yc),
            |xi, yc, kc| self.spmv_tuples_each(xi, kc, |t, row, acc| yc[t * n + row] = acc),
        );
    }
}

impl<T: SimdScalar> SpMvMultiAcc<T> for SellCSigma<T> {
    fn spmv_tuples_acc(&self, xi: &[T], y: &mut [T], kc: usize) {
        spmv_core::traits::check_spmv_multi_dims(self, xi, y, kc);
        let n = self.n_rows;
        self.spmv_tuples_each(xi, kc, |t, row, acc| y[t * n + row] += acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;

    fn fixture_csr(n: usize, m: usize, seed: u64) -> Csr<f64> {
        let mut coo = Coo::new(n, m);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            if i < m {
                let _ = coo.push(i, i, 2.0 + (i % 5) as f64);
            }
            for _ in 0..(next() as usize) % 4 {
                let _ = coo.push(i, (next() as usize) % m, 1.0 + (next() % 7) as f64);
            }
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn matches_csr_bitwise_all_heights_and_sigmas() {
        let csr = fixture_csr(29, 23, 3);
        let x: Vec<f64> = (0..23).map(|i| 0.5 + (i % 9) as f64).collect();
        let want = csr.spmv(&x);
        for c in SELL_HEIGHTS {
            for sigma in sell_sigmas(c) {
                for imp in KernelImpl::ALL {
                    let sell = SellCSigma::from_csr(&csr, c, sigma, imp);
                    sell.validate().unwrap();
                    assert_eq!(sell.spmv(&x), want, "c={c} sigma={sigma} {imp}");
                }
            }
        }
    }

    #[test]
    fn sigma_one_is_identity_permutation() {
        let csr = fixture_csr(17, 13, 5);
        let sell = SellCSigma::from_csr(&csr, 4, 1, KernelImpl::Scalar);
        assert!(sell
            .perm()
            .iter()
            .enumerate()
            .all(|(p, &r)| p == r as usize));
    }

    #[test]
    fn global_sort_minimizes_padding() {
        let csr = fixture_csr(64, 32, 9);
        let unsorted = SellCSigma::from_csr(&csr, 8, 1, KernelImpl::Scalar);
        let sorted = SellCSigma::from_csr(&csr, 8, SELL_SIGMA_FULL, KernelImpl::Scalar);
        assert!(sorted.padding() <= unsorted.padding());
        assert_eq!(sorted.nnz_orig(), csr.nnz());
    }

    #[test]
    fn to_csr_roundtrips() {
        let csr = fixture_csr(21, 17, 7);
        for sigma in [1usize, 8, SELL_SIGMA_FULL] {
            let sell = SellCSigma::from_csr(&csr, 4, sigma, KernelImpl::Scalar);
            assert_eq!(sell.to_csr(), csr, "sigma={sigma}");
        }
    }

    #[test]
    fn multi_matches_per_column_spmv_bitwise() {
        let csr = fixture_csr(19, 15, 13);
        for imp in KernelImpl::ALL {
            let sell = SellCSigma::from_csr(&csr, 8, 64, imp);
            for k in [1usize, 2, 5, 8] {
                let x: Vec<f64> = (0..15 * k).map(|i| 1.0 + (i % 7) as f64).collect();
                let got = sell.spmv_multi(&x, k);
                for t in 0..k {
                    let xcol = &x[t * 15..(t + 1) * 15];
                    assert_eq!(
                        got[t * 19..(t + 1) * 19],
                        sell.spmv(xcol),
                        "k={k} t={t} {imp}"
                    );
                }
            }
        }
    }

    #[test]
    fn tail_slice_and_empty_rows() {
        // 5 rows under C = 4: the tail slice has 3 padded lanes; row 1 is
        // empty and must come out exactly 0.
        let csr = Csr::from_coo(
            &Coo::from_triplets(5, 7, vec![(0, 6, 3.0), (2, 0, 7.0), (4, 3, 1.0)]).unwrap(),
        );
        let x: Vec<f64> = (0..7).map(|i| 1.0 + i as f64).collect();
        for sigma in [1usize, 4, SELL_SIGMA_FULL] {
            let sell = SellCSigma::from_csr(&csr, 4, sigma, KernelImpl::Scalar);
            sell.validate().unwrap();
            assert_eq!(sell.spmv(&x), csr.spmv(&x), "sigma={sigma}");
        }
    }

    #[test]
    fn empty_matrix() {
        let csr = Csr::<f64>::from_coo(&Coo::new(0, 0));
        let sell = SellCSigma::from_csr(&csr, 2, 1, KernelImpl::Scalar);
        sell.validate().unwrap();
        assert_eq!(sell.n_slices(), 0);
        assert_eq!(sell.spmv(&[]), Vec::<f64>::new());
    }

    #[test]
    fn stats_accessors_are_consistent() {
        let csr = fixture_csr(33, 29, 17);
        let sell = SellCSigma::from_csr(&csr, 4, 64, KernelImpl::Scalar);
        assert_eq!(sell.nnz_stored(), sell.nnz_orig() + sell.padding());
        assert_eq!(sell.n_blocks() * sell.slice_height(), sell.nnz_stored());
        assert!(sell.occupancy() > 0.0 && sell.occupancy() <= 1.0);
    }

    #[test]
    #[should_panic(expected = "slice height")]
    fn rejects_unsupported_height() {
        let csr = fixture_csr(4, 4, 1);
        let _ = SellCSigma::from_csr(&csr, 3, 1, KernelImpl::Scalar);
    }

    #[test]
    #[should_panic(expected = "sorting window")]
    fn rejects_zero_sigma() {
        let csr = fixture_csr(4, 4, 1);
        let _ = SellCSigma::from_csr(&csr, 2, 0, KernelImpl::Scalar);
    }
}
