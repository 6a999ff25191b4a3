//! The tuner's pure decision core: per-target state and the re-ranking
//! rule, with no threads, clocks, registry, or engine in sight.
//!
//! Everything here is deterministic given its inputs. The runtime
//! ([`crate::runtime::Tuner`]) is a thin shell that drains residual
//! events into [`TunerCore::observe_events`], asks
//! [`TunerCore::choose`] what to publish for stale targets, and performs
//! the side effects (publish, calibrate, expect, fence). The property
//! suite leans on one invariant this split makes checkable:
//! **the tuner adds no selection logic** — [`TunerCore::choose`] *is*
//! [`spmv_model::select_extended_measured`], nothing more, so the
//! config the tuner swaps in always equals what the model ranks first
//! under the same measured inputs.

use std::collections::BTreeMap;
use std::sync::Arc;

use spmv_core::Csr;
use spmv_kernels::simd::SimdScalar;
use spmv_model::{
    select_extended_measured, Candidate, Config, KernelKey, KernelProfile, MachineProfile,
    MeasuredOverrides, Model,
};
use spmv_parallel::PinPolicy;
use spmv_telemetry::residual::ResidualEvent;

use crate::detector::{DetectorConfig, StalenessDetector, Verdict};

/// Everything the tuner needs to watch (and, when stale, re-prepare)
/// one registered matrix.
#[derive(Debug, Clone)]
pub struct WatchSpec<T: SimdScalar> {
    /// The matrix's current CSR structure — what reranks rank against.
    /// Replaced via `update_structure` when the publisher drifts it.
    pub csr: Arc<Csr<T>>,
    /// The performance model selections are ranked under.
    pub model: Model,
    /// Machine profile reranks start from (before measured overrides).
    pub machine: MachineProfile,
    /// Kernel profile reranks start from (before measured overrides).
    pub profile: KernelProfile,
    /// Whether SIMD kernels are in the candidate space.
    pub include_simd: bool,
    /// Staleness thresholds for this target.
    pub detector: DetectorConfig,
    /// Worker threads for the re-prepared matrix (`<= 1` ⇒ single-thread
    /// backend, no pool).
    pub pool_threads: usize,
    /// Pin policy for the re-prepared matrix's pool (if any) — use the
    /// original serving pool's (e.g. [`PinPolicy::Domains`]) so
    /// hot-swapped pools keep its NUMA placement.
    pub pin: PinPolicy,
}

impl<T: SimdScalar> WatchSpec<T> {
    /// A spec with the extended SIMD-inclusive candidate space, default
    /// detector thresholds, and a single-thread (pool-free) backend.
    pub fn new(
        csr: Arc<Csr<T>>,
        model: Model,
        machine: MachineProfile,
        profile: KernelProfile,
    ) -> Self {
        Self {
            csr,
            model,
            machine,
            profile,
            include_simd: true,
            detector: DetectorConfig::default(),
            pool_threads: 1,
            pin: PinPolicy::None,
        }
    }
}

/// One watched matrix: its spec, its detector, and what is currently
/// published for it.
#[derive(Debug, Clone)]
pub(crate) struct TuneTarget<T: SimdScalar> {
    pub(crate) spec: WatchSpec<T>,
    pub(crate) detector: StalenessDetector,
    pub(crate) current: Config,
}

/// A verdict transition worth telling the timeline about.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// The registry id ([`spmv_serve::MatrixId`]`.0`) that transitioned.
    pub matrix: u64,
    /// The verdict that fired (`Stale` on entry, or `Recovered`).
    pub verdict: Verdict,
    /// The windowed mean `|rel err|` at the moment it fired.
    pub windowed: f64,
}

/// Deterministic per-target bookkeeping for the tuner.
#[derive(Debug, Default)]
pub struct TunerCore<T: SimdScalar> {
    targets: BTreeMap<u64, TuneTarget<T>>,
}

impl<T: SimdScalar> TunerCore<T> {
    /// An empty core.
    pub fn new() -> Self {
        Self {
            targets: BTreeMap::new(),
        }
    }

    /// Starts watching `matrix`, whose published selection is
    /// `current`. Replaces any previous watch of the same id.
    pub fn watch(&mut self, matrix: u64, spec: WatchSpec<T>, current: Config) {
        let detector = StalenessDetector::new(spec.detector.clone());
        self.targets.insert(
            matrix,
            TuneTarget {
                spec,
                detector,
                current,
            },
        );
    }

    /// Ids currently watched, ascending.
    pub fn watched(&self) -> Vec<u64> {
        self.targets.keys().copied().collect()
    }

    /// Replaces the structure reranks rank against (the publisher
    /// drifted the matrix). Returns whether `matrix` was watched.
    ///
    /// Deliberately does *not* touch the detector: the tuner reacts to
    /// measured residuals, not to being told — a drift that doesn't
    /// move the residuals doesn't warrant a swap.
    pub fn update_structure(&mut self, matrix: u64, csr: Arc<Csr<T>>) -> bool {
        match self.targets.get_mut(&matrix) {
            Some(t) => {
                t.spec.csr = csr;
                true
            }
            None => false,
        }
    }

    /// Feeds drained residual events to their targets' detectors, in
    /// order, and returns the reportable transitions: one `Stale` per
    /// entry into staleness, and every `Recovered`. Events for
    /// unwatched matrices are ignored.
    pub fn observe_events(&mut self, events: &[ResidualEvent]) -> Vec<Transition> {
        let mut out = Vec::new();
        for ev in events {
            let Some(target) = self.targets.get_mut(&ev.matrix) else {
                continue;
            };
            let was_stale = target.detector.is_stale();
            let verdict = target.detector.observe(ev.abs_rel());
            let report = match verdict {
                Verdict::Stale => !was_stale,
                Verdict::Recovered => true,
                _ => false,
            };
            if report {
                out.push(Transition {
                    matrix: ev.matrix,
                    verdict,
                    windowed: target.detector.windowed(),
                });
            }
        }
        out
    }

    /// Ids whose detectors are latched stale (awaiting a swap),
    /// ascending.
    pub fn stale_targets(&self) -> Vec<u64> {
        self.targets
            .iter()
            .filter(|(_, t)| t.detector.is_stale())
            .map(|(id, _)| *id)
            .collect()
    }

    /// The bounded re-profile set for a stale target: just the kernel
    /// key of the configuration currently serving — the kernel whose
    /// residuals misbehaved. (The stored profile's rows stand for every
    /// other candidate; re-measuring all 53 keys on a live host is the
    /// offline calibration path, not the tuner's.)
    pub fn suspect_keys(&self, matrix: u64) -> Vec<KernelKey> {
        self.targets
            .get(&matrix)
            .map(|t| vec![t.current.kernel_key()])
            .unwrap_or_default()
    }

    /// The configuration the tuner would publish for `matrix` under
    /// `overrides` — by definition, exactly what
    /// [`select_extended_measured`] ranks first. This delegation is the
    /// whole method; the property suite asserts it stays that way.
    pub fn choose(&self, matrix: u64, overrides: &MeasuredOverrides) -> Option<Candidate> {
        let t = self.targets.get(&matrix)?;
        Some(select_extended_measured(
            t.spec.model,
            &t.spec.csr,
            &t.spec.machine,
            &t.spec.profile,
            t.spec.include_simd,
            overrides,
        ))
    }

    /// Records that the runtime published `new_config` for `matrix`:
    /// updates the current selection and puts the detector into its
    /// post-swap cooldown.
    pub fn apply_swap(&mut self, matrix: u64, new_config: Config) {
        if let Some(t) = self.targets.get_mut(&matrix) {
            t.current = new_config;
            t.detector.on_swap();
        }
    }

    /// The currently published configuration of a watched matrix.
    pub fn current(&self, matrix: u64) -> Option<Config> {
        self.targets.get(&matrix).map(|t| t.current)
    }

    /// The detector verdict of a watched matrix (no new observation).
    pub fn verdict(&self, matrix: u64) -> Option<Verdict> {
        self.targets.get(&matrix).map(|t| t.detector.verdict())
    }

    /// The windowed mean `|rel err|` of a watched matrix.
    pub fn windowed(&self, matrix: u64) -> Option<f64> {
        self.targets.get(&matrix).map(|t| t.detector.windowed())
    }

    pub(crate) fn target(&self, matrix: u64) -> Option<&TuneTarget<T>> {
        self.targets.get(&matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;
    use spmv_model::select_extended;
    use spmv_telemetry::residual::ResidualKey;

    fn small_csr() -> Arc<Csr<f64>> {
        let mut coo = Coo::new(32, 32);
        for i in 0..32 {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < 32 {
                coo.push(i, i + 1, -1.0).unwrap();
            }
        }
        Arc::new(Csr::from_coo(&coo))
    }

    fn machine() -> MachineProfile {
        MachineProfile {
            bandwidth: 8e9,
            l1_bytes: 32 << 10,
            llc_bytes: 8 << 20,
        }
    }

    fn event(matrix: u64, predicted: f64, measured: f64) -> ResidualEvent {
        ResidualEvent {
            seq: 0,
            matrix,
            key: ResidualKey {
                format: "CSR".into(),
                shape: "-".into(),
                kernel: "scalar".into(),
                model: "OVERLAP".into(),
            },
            predicted,
            measured,
        }
    }

    fn core_with_target(detector: DetectorConfig) -> TunerCore<f64> {
        let mut core = TunerCore::new();
        let spec = WatchSpec {
            detector,
            ..WatchSpec::new(
                small_csr(),
                Model::Overlap,
                machine(),
                KernelProfile::uniform(1e-9, 0.5),
            )
        };
        core.watch(7, spec, Config::CSR);
        core
    }

    fn tight_detector() -> DetectorConfig {
        DetectorConfig {
            window: 2,
            enter: 0.5,
            exit: 0.2,
            consecutive: 2,
            cooldown: 1,
            min_samples: 1,
        }
    }

    #[test]
    fn events_route_by_matrix_id_and_report_stale_entry_once() {
        let mut core = core_with_target(tight_detector());
        // Unwatched ids are ignored; watched id needs 2 consecutive.
        let evs = vec![
            event(99, 1.0, 10.0),
            event(7, 1.0, 10.0),
            event(7, 1.0, 10.0),
            event(7, 1.0, 10.0), // already stale: no second report
        ];
        let transitions = core.observe_events(&evs);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].matrix, 7);
        assert_eq!(transitions[0].verdict, Verdict::Stale);
        assert_eq!(core.stale_targets(), vec![7]);
        assert!(core.verdict(99).is_none());
    }

    #[test]
    fn choose_is_exactly_the_measured_selection() {
        let core = core_with_target(DetectorConfig::default());
        let overrides = MeasuredOverrides {
            bandwidth: Some(2e9),
            kernels: vec![],
        };
        let chosen = core.choose(7, &overrides).unwrap();
        let t = core.target(7).unwrap();
        let (m2, p2) = overrides.apply(&t.spec.machine, &t.spec.profile);
        let direct = select_extended(Model::Overlap, &t.spec.csr, &m2, &p2, true);
        assert_eq!(chosen.config, direct.config);
        assert_eq!(chosen.predicted, direct.predicted);
        assert!(core.choose(99, &overrides).is_none());
    }

    #[test]
    fn apply_swap_updates_current_and_cools_the_detector() {
        let mut core = core_with_target(tight_detector());
        core.observe_events(&[event(7, 1.0, 10.0), event(7, 1.0, 10.0)]);
        assert!(core.stale_targets().contains(&7));
        let new = core.choose(7, &MeasuredOverrides::default()).unwrap();
        core.apply_swap(7, new.config);
        assert!(core.stale_targets().is_empty());
        assert_eq!(core.current(7), Some(new.config));
        assert_eq!(core.verdict(7), Some(Verdict::CoolingDown));
    }

    #[test]
    fn suspect_keys_name_only_the_serving_kernel() {
        let core = core_with_target(DetectorConfig::default());
        assert_eq!(core.suspect_keys(7), vec![Config::CSR.kernel_key()]);
        assert!(core.suspect_keys(99).is_empty());
    }

    #[test]
    fn structure_updates_swap_the_ranked_matrix_without_touching_state() {
        let mut core = core_with_target(tight_detector());
        core.observe_events(&[event(7, 1.0, 10.0)]);
        let before = core.verdict(7);
        let denser = {
            let mut coo = Coo::new(32, 32);
            for i in 0..32 {
                for j in 0..32 {
                    if (i + j) % 3 == 0 {
                        coo.push(i, j, 1.0).unwrap();
                    }
                }
            }
            Arc::new(Csr::from_coo(&coo))
        };
        assert!(core.update_structure(7, Arc::clone(&denser)));
        assert!(!core.update_structure(99, denser));
        assert_eq!(core.verdict(7), before);
    }
}
