//! The three performance models: MEM, MEMCOMP, OVERLAP (§IV).

use crate::config::SubStat;
use crate::machine::MachineProfile;
use crate::profile::KernelProfile;
use core::fmt;

/// A performance model predicting the execution time of one SpMV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Model {
    /// Pure streaming model (Gropp et al.): `t = ws / BW` (eq. 1).
    Mem,
    /// Memory + computation, no overlap:
    /// `t = Σ_i ws_i/BW + nb_i · t_b_i` (eq. 2).
    MemComp,
    /// Memory with partially overlapped computation:
    /// `t = Σ_i ws_i/BW + nof_i · nb_i · t_b_i` (eq. 3).
    Overlap,
}

impl Model {
    /// All models, in the paper's presentation order.
    pub const ALL: [Model; 3] = [Model::Mem, Model::MemComp, Model::Overlap];

    /// The paper's label.
    pub const fn label(self) -> &'static str {
        match self {
            Model::Mem => "MEM",
            Model::MemComp => "MEMCOMP",
            Model::Overlap => "OVERLAP",
        }
    }

    /// Predicted execution time in seconds for one SpMV of a
    /// configuration described by its per-submatrix statistics.
    ///
    /// For non-decomposed formats `stats` has one entry and the sums
    /// reduce to the paper's single-matrix forms; CSR enters as the
    /// degenerate 1×1 blocking with `nb = nnz`.
    pub fn predict(
        self,
        stats: &[SubStat],
        machine: &MachineProfile,
        profile: &KernelProfile,
    ) -> f64 {
        stats
            .iter()
            .map(|s| {
                let t_mem = s.ws_bytes as f64 / machine.bandwidth;
                match self {
                    Model::Mem => t_mem,
                    Model::MemComp => {
                        let t = profile.get(s.key);
                        t_mem + s.nb as f64 * t.t_b
                    }
                    Model::Overlap => {
                        let t = profile.get(s.key);
                        t_mem + t.nof * s.nb as f64 * t.t_b
                    }
                }
            })
            .sum()
    }

    /// Predicted execution time in seconds for one `k`-vector
    /// (multi-vector / SpMM) call.
    ///
    /// Extends the single-vector forms to batched right-hand sides: the
    /// matrix arrays (`ws_bytes - vec_bytes`) stream once per call, the
    /// vector traffic (`vec_bytes`) and the computational part both scale
    /// by `k`. With `k = 1` this reduces exactly to [`Model::predict`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn predict_multi(
        self,
        stats: &[SubStat],
        k: usize,
        machine: &MachineProfile,
        profile: &KernelProfile,
    ) -> f64 {
        assert!(k > 0, "predict_multi requires k >= 1");
        stats
            .iter()
            .map(|s| {
                let bytes = (s.ws_bytes - s.vec_bytes) + k * s.vec_bytes;
                let t_mem = bytes as f64 / machine.bandwidth;
                let compute = k as f64 * s.nb as f64;
                match self {
                    Model::Mem => t_mem,
                    Model::MemComp => {
                        let t = profile.get(s.key);
                        t_mem + compute * t.t_b
                    }
                    Model::Overlap => {
                        let t = profile.get(s.key);
                        t_mem + t.nof * compute * t.t_b
                    }
                }
            })
            .sum()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelKey;
    use crate::profile::BlockTimes;

    fn machine() -> MachineProfile {
        MachineProfile {
            bandwidth: 1e9, // 1 GB/s: 1 byte = 1 ns
            l1_bytes: 32 * 1024,
            llc_bytes: 4 << 20,
        }
    }

    fn stat(ws: usize, nb: usize) -> SubStat {
        SubStat {
            ws_bytes: ws,
            vec_bytes: 0,
            nb,
            key: KernelKey::Csr,
        }
    }

    fn stat_vec(ws: usize, vec: usize, nb: usize) -> SubStat {
        SubStat {
            vec_bytes: vec,
            ..stat(ws, nb)
        }
    }

    #[test]
    fn mem_is_ws_over_bw() {
        let p = KernelProfile::uniform(1e-8, 0.5);
        let t = Model::Mem.predict(&[stat(1_000_000, 10)], &machine(), &p);
        assert!((t - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn memcomp_adds_full_compute_time() {
        let p = KernelProfile::uniform(1e-8, 0.5);
        let t = Model::MemComp.predict(&[stat(1_000_000, 1000)], &machine(), &p);
        assert!((t - (1e-3 + 1000.0 * 1e-8)).abs() < 1e-12);
    }

    #[test]
    fn overlap_scales_compute_by_nof() {
        let p = KernelProfile::uniform(1e-8, 0.25);
        let t = Model::Overlap.predict(&[stat(1_000_000, 1000)], &machine(), &p);
        assert!((t - (1e-3 + 0.25 * 1000.0 * 1e-8)).abs() < 1e-12);
    }

    #[test]
    fn model_ordering_mem_below_overlap_below_memcomp() {
        // With nof strictly inside (0, 1) the three predictions are
        // strictly ordered — the property Figure 3 visualizes.
        let p = KernelProfile::uniform(1e-8, 0.5);
        let stats = [stat(500_000, 700)];
        let m = machine();
        let mem = Model::Mem.predict(&stats, &m, &p);
        let ovl = Model::Overlap.predict(&stats, &m, &p);
        let cmp = Model::MemComp.predict(&stats, &m, &p);
        assert!(mem < ovl && ovl < cmp);
    }

    #[test]
    fn decomposed_sums_over_submatrices() {
        let p = KernelProfile::uniform(2e-9, 1.0);
        let stats = [stat(100_000, 10), stat(200_000, 20)];
        let m = machine();
        let whole = Model::MemComp.predict(&stats, &m, &p);
        let parts = Model::MemComp.predict(&stats[..1], &m, &p)
            + Model::MemComp.predict(&stats[1..], &m, &p);
        assert!((whole - parts).abs() < 1e-15);
    }

    #[test]
    fn nof_one_makes_overlap_equal_memcomp() {
        let p = KernelProfile::uniform(1e-8, 1.0);
        let stats = [stat(1_000, 50)];
        let m = machine();
        assert_eq!(
            Model::Overlap.predict(&stats, &m, &p),
            Model::MemComp.predict(&stats, &m, &p)
        );
    }

    #[test]
    fn nof_zero_makes_overlap_equal_mem() {
        let mut p = KernelProfile::uniform(1e-8, 0.0);
        p.set(
            KernelKey::Csr,
            BlockTimes {
                t_b: 1e-8,
                nof: 0.0,
            },
        );
        let stats = [stat(1_000, 50)];
        let m = machine();
        assert_eq!(
            Model::Overlap.predict(&stats, &m, &p),
            Model::Mem.predict(&stats, &m, &p)
        );
    }

    #[test]
    fn predict_multi_with_k1_equals_predict() {
        let p = KernelProfile::uniform(1e-8, 0.5);
        let stats = [stat_vec(1_000_000, 16_000, 700)];
        let m = machine();
        for model in Model::ALL {
            assert_eq!(
                model.predict_multi(&stats, 1, &m, &p),
                model.predict(&stats, &m, &p),
                "{model}"
            );
        }
    }

    #[test]
    fn multi_amortizes_matrix_traffic() {
        // 1 MB working set of which 16 KB is vectors: a 4-vector call
        // pays the matrix once, so it must be far cheaper than 4 calls.
        let p = KernelProfile::uniform(1e-8, 0.5);
        let stats = [stat_vec(1_000_000, 16_000, 0)];
        let m = machine();
        let one = Model::Mem.predict(&stats, &m, &p);
        let four = Model::Mem.predict_multi(&stats, 4, &m, &p);
        assert!(four < 4.0 * one);
        // Exact form: (ws - vec + 4*vec)/BW.
        assert!((four - (1_000_000.0 - 16_000.0 + 4.0 * 16_000.0) / 1e9).abs() < 1e-15);
    }

    #[test]
    fn multi_compute_scales_with_k() {
        // Pure-compute check: with vec_bytes == ws_bytes == 0 bytes of
        // matrix amortization at play, the compute term is linear in k.
        let p = KernelProfile::uniform(1e-8, 0.5);
        let stats = [stat(0, 1000)];
        let m = machine();
        let t1 = Model::MemComp.predict_multi(&stats, 1, &m, &p);
        let t8 = Model::MemComp.predict_multi(&stats, 8, &m, &p);
        assert!((t8 - 8.0 * t1).abs() < 1e-15);
        let o1 = Model::Overlap.predict_multi(&stats, 1, &m, &p);
        let o8 = Model::Overlap.predict_multi(&stats, 8, &m, &p);
        assert!((o8 - 8.0 * o1).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn predict_multi_rejects_zero_k() {
        let p = KernelProfile::uniform(1e-8, 0.5);
        Model::Mem.predict_multi(&[stat(1_000, 10)], 0, &machine(), &p);
    }

    #[test]
    fn labels() {
        assert_eq!(Model::Mem.label(), "MEM");
        assert_eq!(Model::MemComp.label(), "MEMCOMP");
        assert_eq!(Model::Overlap.label(), "OVERLAP");
    }
}
