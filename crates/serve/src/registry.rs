//! The concurrent, read-mostly registry of prepared matrices.
//!
//! A serving process holds many matrices, each already converted to the
//! storage format the performance models selected for it. Lookups happen
//! on every request; publications (a new matrix, or a re-selected format
//! for an existing one) are rare. The registry is therefore built
//! read-first:
//!
//! * entries are spread over `2^s` **shards** by a splitmix64 hash of the
//!   [`MatrixId`], so unrelated publications never contend;
//! * each shard keeps **two immutable snapshots** of its map plus an
//!   atomic index saying which one is live (the *left-right* scheme, the
//!   same epoch-pointer idea `arc-swap` implements): readers take the
//!   live snapshot with two atomic operations and a hash lookup — no
//!   lock, no allocation, and no writer can ever stall them;
//! * a writer (holding the shard's writer mutex) builds the next
//!   snapshot in the *inactive* slot, flips the index, and only ever
//!   reuses a slot after its last reader has drained — so a reader
//!   always sees a fully-published snapshot, never a map mid-mutation.
//!
//! Versions are assigned by the registry on publish and grow
//! monotonically per entry, which is what lets a background tuner
//! hot-swap a re-selected format while readers keep serving traffic.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use spmv_core::{Csr, MatrixShape, SpMv, SpMvMulti};
use spmv_kernels::simd::SimdScalar;
use spmv_model::{
    residual_key_for, select_extended, BuiltFormat, Config, KernelProfile, MachineProfile, Model,
};
use spmv_parallel::{PinPolicy, SpmvPool};
use spmv_telemetry::residual::ResidualKey;

/// Identity of a matrix in the registry: an opaque 64-bit id chosen by
/// the publisher (a tenant key, a content hash, a sequence number — the
/// registry only hashes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MatrixId(pub u64);

impl fmt::Display for MatrixId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{:016x}", self.0)
    }
}

/// How a prepared matrix was selected: the model that ranked its
/// configuration first and the per-SpMV time that ranking expected.
///
/// The expectation is what live dispatch measurements are compared
/// against to produce prediction residuals — it may be the model's raw
/// prediction, or a value the publisher calibrated by measuring the
/// prepared matrix once on the serving host (which centers residuals at
/// zero so a detector sees *drift*, not the model's constant bias).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selection {
    /// The model that made (or would re-make) the selection.
    pub model: Model,
    /// Expected seconds for one single-vector SpMV.
    pub predicted: f64,
}

/// Materializes `config` for `csr` inside a `formats.build` span whose
/// argument is the nonzeros converted. A pooled matrix converts strip by
/// strip, so it records one span per strip, on the worker that owns it.
fn build<T: SimdScalar>(config: Config, csr: &Csr<T>) -> BuiltFormat<T> {
    let _span = spmv_telemetry::span_with("formats.build", csr.nnz() as u64);
    config.build(csr)
}

/// A matrix ready to serve traffic: the storage format and kernel the
/// models selected, plus the execution backend that runs it.
///
/// The backend is either the materialized format itself (dispatched on
/// the engine thread) or a persistent [`SpmvPool`] whose workers execute
/// the strips in parallel. Both implement [`SpMvMulti`], so the request
/// engine batches through them uniformly.
pub struct PreparedMatrix<T: SimdScalar> {
    config: Config,
    backend: Backend<T>,
    n_rows: usize,
    n_cols: usize,
    selection: Option<Selection>,
}

enum Backend<T: SimdScalar> {
    Direct(BuiltFormat<T>),
    Pooled(SpmvPool<T>),
}

impl<T: SimdScalar> PreparedMatrix<T> {
    /// Runs model-driven selection over the extended configuration space
    /// and materializes the winner.
    ///
    /// This is the serving-side entry point to the paper's pipeline:
    /// `select_extended` ranks every (format, block, kernel) candidate
    /// from six `O(nnz)` structural passes (one per block width up to 4,
    /// one for the one-row widths 5 to 8 and one over the diagonals, each
    /// counting every block height it covers) and the winner alone is
    /// built. The whole call is one
    /// `serve.prepare` span (argument: nonzeros) around the `model.rank`
    /// span, which holds one `model.stats.*` span per pass, and the
    /// `formats.build` span.
    pub fn prepare(
        csr: &Csr<T>,
        model: Model,
        machine: &MachineProfile,
        profile: &KernelProfile,
        include_simd: bool,
    ) -> Self {
        let _span = spmv_telemetry::span_with("serve.prepare", csr.nnz() as u64);
        let choice = select_extended(model, csr, machine, profile, include_simd);
        Self::from_config(choice.config, csr).with_selection(model, choice.predicted)
    }

    /// Materializes an explicit configuration for `csr` (no selection).
    pub fn from_config(config: Config, csr: &Csr<T>) -> Self {
        PreparedMatrix {
            config,
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            backend: Backend::Direct(build(config, csr)),
            selection: None,
        }
    }

    /// Attaches (or replaces) the selection expectation — see
    /// [`Selection`] for what `predicted` means to the residual loop.
    pub fn with_selection(mut self, model: Model, predicted: f64) -> Self {
        self.selection = Some(Selection { model, predicted });
        self
    }

    /// Materializes an explicit configuration on a persistent
    /// [`SpmvPool`] of `n_threads` workers pinned under `pin` (no
    /// selection) — the hot-swap path uses this to host a re-selected
    /// configuration on fresh workers. The strips follow
    /// [`Config::pool_units`], so the product is bitwise the serial one.
    pub fn from_config_pooled(
        config: Config,
        csr: &Csr<T>,
        n_threads: usize,
        pin: PinPolicy,
    ) -> Self {
        let (weights, unit_height) = config.pool_units(csr);
        let pool = SpmvPool::from_csr(
            csr,
            n_threads,
            &weights,
            unit_height,
            move |sub| build(config, sub),
            pin,
        );
        PreparedMatrix {
            config,
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            backend: Backend::Pooled(pool),
            selection: None,
        }
    }

    /// The configuration the models selected (or the caller pinned).
    pub fn config(&self) -> Config {
        self.config
    }

    /// The selection expectation, when one was attached.
    pub fn selection(&self) -> Option<Selection> {
        self.selection
    }

    /// The residual-tracker key live measurements of this matrix record
    /// under, when a selection expectation is attached.
    pub fn residual_key(&self) -> Option<ResidualKey> {
        self.selection
            .map(|s| residual_key_for(self.config, s.model))
    }

    /// Whether dispatches run on a persistent worker pool.
    pub fn is_pooled(&self) -> bool {
        matches!(self.backend, Backend::Pooled(_))
    }

    /// Whether the backing pool's pin policy landed two workers on one
    /// core (always `false` for direct backends). Surfaced per matrix in
    /// `EngineReport::warnings` — an oversubscribed "parallel" pool
    /// silently serializes its strips.
    pub fn pin_oversubscribed(&self) -> bool {
        match &self.backend {
            Backend::Direct(_) => false,
            Backend::Pooled(pool) => pool.pin_oversubscribed(),
        }
    }
}

#[cfg(test)]
impl<T: SimdScalar> PreparedMatrix<T> {
    /// Shuts a pooled backend's workers down, so its next product panics
    /// with "used after shutdown": a dispatch failure tests can trigger.
    pub(crate) fn shut_down_pool(&mut self) {
        if let Backend::Pooled(pool) = &mut self.backend {
            pool.shutdown();
        }
    }
}

impl<T: SimdScalar> fmt::Debug for PreparedMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedMatrix")
            .field("config", &self.config.to_string())
            .field("n_rows", &self.n_rows)
            .field("n_cols", &self.n_cols)
            .field("pooled", &self.is_pooled())
            .finish()
    }
}

impl<T: SimdScalar> MatrixShape for PreparedMatrix<T> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }
    fn n_cols(&self) -> usize {
        self.n_cols
    }
}

impl<T: SimdScalar> SpMv<T> for PreparedMatrix<T> {
    fn spmv_into(&self, x: &[T], y: &mut [T]) {
        match &self.backend {
            Backend::Direct(m) => m.spmv_into(x, y),
            Backend::Pooled(p) => p.spmv_into(x, y),
        }
    }
    fn nnz_stored(&self) -> usize {
        match &self.backend {
            Backend::Direct(m) => m.nnz_stored(),
            Backend::Pooled(p) => p.nnz_stored(),
        }
    }
    fn matrix_bytes(&self) -> usize {
        match &self.backend {
            Backend::Direct(m) => m.matrix_bytes(),
            Backend::Pooled(p) => p.matrix_bytes(),
        }
    }
}

impl<T: SimdScalar> SpMvMulti<T> for PreparedMatrix<T> {
    fn spmv_multi_into(&self, x: &[T], y: &mut [T], k: usize) {
        match &self.backend {
            Backend::Direct(m) => m.spmv_multi_into(x, y, k),
            Backend::Pooled(p) => p.spmv_multi_into(x, y, k),
        }
    }
}

/// One registry entry: the prepared matrix plus the monotonic version
/// the registry stamped on publication.
#[derive(Debug, Clone)]
struct Entry<T: SimdScalar> {
    version: u64,
    prepared: Arc<PreparedMatrix<T>>,
}

type ShardMap<T> = HashMap<u64, Entry<T>>;

/// One left-right shard: two map snapshots, an active-slot index, and a
/// per-slot reader count. See the [module docs](self) for the protocol.
struct Shard<T: SimdScalar> {
    /// Which of the two slots readers should enter (0 or 1).
    active: AtomicUsize,
    /// Readers currently inside each slot.
    readers: [AtomicUsize; 2],
    /// The snapshots. A slot is only written while it is inactive *and*
    /// its reader count has drained to zero, under the writer mutex.
    maps: [UnsafeCell<Arc<ShardMap<T>>>; 2],
    /// Serializes writers; readers never touch it.
    writer: Mutex<()>,
}

// SAFETY: the left-right protocol ensures a slot is mutated only while
// no reader is inside it (drained, inactive, writer lock held), and the
// maps only hold `Send + Sync` payloads.
unsafe impl<T: SimdScalar> Sync for Shard<T> {}
// SAFETY: same reasoning; ownership transfer of the shard moves both
// snapshots wholesale.
unsafe impl<T: SimdScalar> Send for Shard<T> {}

impl<T: SimdScalar> Shard<T> {
    fn new() -> Self {
        Shard {
            active: AtomicUsize::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
            maps: [
                UnsafeCell::new(Arc::new(HashMap::new())),
                UnsafeCell::new(Arc::new(HashMap::new())),
            ],
            writer: Mutex::new(()),
        }
    }

    /// Takes the live snapshot: two atomics plus an `Arc` clone, never a
    /// lock. The re-check after registering makes the slot's drain
    /// guarantee airtight: a writer can only start mutating a slot after
    /// *two* flips, and the second flip is visible by the time our
    /// registration could have been missed — so if `active` still equals
    /// `a` the slot is safe, and otherwise we back off and retry.
    ///
    /// All protocol atomics are `SeqCst`: the safety argument needs the
    /// reader's registration store and the writer's drain load to be in a
    /// single total order with the flips.
    fn snapshot(&self) -> Arc<ShardMap<T>> {
        loop {
            let a = self.active.load(Ordering::SeqCst);
            self.readers[a].fetch_add(1, Ordering::SeqCst);
            if self.active.load(Ordering::SeqCst) == a {
                // SAFETY: slot `a` was active after our registration, so
                // any writer targeting it is still waiting on our drain.
                let map = unsafe { (*self.maps[a].get()).clone() };
                self.readers[a].fetch_sub(1, Ordering::SeqCst);
                return map;
            }
            self.readers[a].fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Publishes the map produced by `update(current)` and reports what
    /// `update` returned alongside it.
    fn update<R>(&self, update: impl FnOnce(&ShardMap<T>) -> (ShardMap<T>, R)) -> R {
        let _w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let a = self.active.load(Ordering::SeqCst);
        let inactive = 1 - a;
        // SAFETY: `a` is the active slot and we hold the writer lock, so
        // nothing mutates it; readers only clone the Arc.
        let current = unsafe { (*self.maps[a].get()).clone() };
        let (next, out) = update(&current);
        // Wait for stragglers from the *previous* flip to leave the
        // inactive slot before overwriting it. Publications are rare and
        // reads are two atomics long, so this spin is bounded and short.
        while self.readers[inactive].load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        // SAFETY: inactive + drained + writer lock held = exclusive.
        unsafe { *self.maps[inactive].get() = Arc::new(next) };
        self.active.store(inactive, Ordering::SeqCst);
        out
    }
}

/// The sharded, read-mostly map from [`MatrixId`] to [`PreparedMatrix`].
///
/// # Example
///
/// ```
/// use spmv_core::{Coo, Csr, SpMv};
/// use spmv_model::Config;
/// use spmv_serve::{MatrixId, PreparedMatrix, Registry};
///
/// let csr = Csr::from_coo(&Coo::from_triplets(2, 2, vec![
///     (0, 0, 2.0), (1, 1, 3.0),
/// ]).unwrap());
/// let registry = Registry::new();
/// let id = MatrixId(42);
/// let v1 = registry.publish(id, PreparedMatrix::from_config(Config::CSR, &csr));
/// assert_eq!(v1, 1);
///
/// let served = registry.get(id).expect("published");
/// assert_eq!(served.spmv(&[1.0, 1.0]), csr.spmv(&[1.0, 1.0]));
///
/// // Re-publishing the same id bumps its version; readers switch over
/// // without ever blocking.
/// let v2 = registry.publish(id, PreparedMatrix::from_config(Config::CSR, &csr));
/// assert_eq!(v2, 2);
/// assert_eq!(registry.version_of(id), Some(2));
/// assert!(registry.get(MatrixId(7)).is_none());
/// ```
pub struct Registry<T: SimdScalar> {
    shards: Box<[Shard<T>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
}

impl<T: SimdScalar> Registry<T> {
    /// Default shard count: plenty for tens of writer threads while
    /// keeping an idle registry small.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A registry with [`Registry::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// A registry with `shards` shards, rounded up to a power of two
    /// (minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Registry {
            shards: (0..n).map(|_| Shard::new()).collect(),
            mask: (n - 1) as u64,
        }
    }

    fn shard(&self, id: MatrixId) -> &Shard<T> {
        // splitmix64 finalizer: ids are often sequential, and the shard
        // index must not be.
        let mut z = id.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        &self.shards[(z & self.mask) as usize]
    }

    /// Publishes `prepared` under `id`, replacing any previous entry, and
    /// returns the entry's new version (1 for a first publication,
    /// monotonically increasing per id after that).
    ///
    /// Readers racing with the publication see either the old or the new
    /// entry, never a partial one, and are never blocked.
    pub fn publish(&self, id: MatrixId, prepared: PreparedMatrix<T>) -> u64 {
        let _span = spmv_telemetry::span_with("registry.publish", id.0);
        let prepared = Arc::new(prepared);
        self.shard(id).update(move |cur| {
            let version = cur.get(&id.0).map_or(0, |e| e.version) + 1;
            let mut next = cur.clone();
            next.insert(id.0, Entry { version, prepared });
            (next, version)
        })
    }

    /// Removes `id`, returning whether it was present. The removed
    /// matrix's storage is freed once the last in-flight reader drops its
    /// `Arc`.
    pub fn remove(&self, id: MatrixId) -> bool {
        self.shard(id).update(|cur| {
            let mut next = cur.clone();
            let was = next.remove(&id.0).is_some();
            (next, was)
        })
    }

    /// Looks up `id`. Lock-free: two atomic operations, a hash probe, and
    /// two `Arc` clones on the fast path.
    pub fn get(&self, id: MatrixId) -> Option<Arc<PreparedMatrix<T>>> {
        self.shard(id)
            .snapshot()
            .get(&id.0)
            .map(|e| Arc::clone(&e.prepared))
    }

    /// Like [`Registry::get`], also reporting the entry's publish
    /// version.
    pub fn get_versioned(&self, id: MatrixId) -> Option<(u64, Arc<PreparedMatrix<T>>)> {
        self.shard(id)
            .snapshot()
            .get(&id.0)
            .map(|e| (e.version, Arc::clone(&e.prepared)))
    }

    /// The current publish version of `id`, if present.
    pub fn version_of(&self, id: MatrixId) -> Option<u64> {
        self.shard(id).snapshot().get(&id.0).map(|e| e.version)
    }

    /// Whether `id` is currently published.
    pub fn contains(&self, id: MatrixId) -> bool {
        self.shard(id).snapshot().contains_key(&id.0)
    }

    /// Number of published matrices (a point-in-time sum over shards).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.snapshot().len()).sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every published id, in unspecified order.
    pub fn ids(&self) -> Vec<MatrixId> {
        let mut out: Vec<MatrixId> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.snapshot()
                    .keys()
                    .map(|&k| MatrixId(k))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        out
    }
}

impl<T: SimdScalar> Default for Registry<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SimdScalar> fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_core::Coo;
    use spmv_gen::{random_vector, GenSpec};

    fn diag(n: usize, scale: f64) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, scale).unwrap();
        }
        Csr::from_coo(&coo)
    }

    fn prepared(scale: f64) -> PreparedMatrix<f64> {
        PreparedMatrix::from_config(Config::CSR, &diag(8, scale))
    }

    #[test]
    fn publish_get_remove_roundtrip() {
        let r = Registry::<f64>::new();
        assert!(r.is_empty());
        assert_eq!(r.publish(MatrixId(1), prepared(2.0)), 1);
        assert_eq!(r.publish(MatrixId(2), prepared(3.0)), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.ids(), vec![MatrixId(1), MatrixId(2)]);
        let got = r.get(MatrixId(1)).unwrap();
        assert_eq!(got.spmv(&[1.0; 8]), vec![2.0; 8]);
        assert!(r.remove(MatrixId(1)));
        assert!(!r.remove(MatrixId(1)));
        assert!(r.get(MatrixId(1)).is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn versions_are_per_id_monotonic() {
        let r = Registry::<f64>::new();
        for v in 1..=5u64 {
            assert_eq!(r.publish(MatrixId(9), prepared(v as f64)), v);
            assert_eq!(r.version_of(MatrixId(9)), Some(v));
        }
        // An unrelated id starts back at 1.
        assert_eq!(r.publish(MatrixId(10), prepared(1.0)), 1);
        // Removing and re-publishing restarts the version chain.
        r.remove(MatrixId(9));
        assert_eq!(r.publish(MatrixId(9), prepared(1.0)), 1);
    }

    #[test]
    fn single_shard_registry_still_works() {
        let r = Registry::<f64>::with_shards(1);
        for i in 0..32 {
            r.publish(MatrixId(i), prepared(i as f64 + 1.0));
        }
        assert_eq!(r.len(), 32);
        for i in 0..32 {
            let (v, p) = r.get_versioned(MatrixId(i)).unwrap();
            assert_eq!(v, 1);
            assert_eq!(p.spmv(&[1.0; 8])[0], i as f64 + 1.0);
        }
    }

    #[test]
    fn selection_metadata_rides_along_and_keys_residuals() {
        let csr = diag(8, 1.0);
        let bare = PreparedMatrix::from_config(Config::CSR, &csr);
        assert_eq!(bare.selection(), None);
        assert_eq!(bare.residual_key(), None);

        let tagged =
            PreparedMatrix::from_config(Config::CSR, &csr).with_selection(Model::Overlap, 1.25e-6);
        let sel = tagged.selection().unwrap();
        assert_eq!(sel.model, Model::Overlap);
        assert_eq!(sel.predicted, 1.25e-6);
        let key = tagged.residual_key().unwrap();
        assert_eq!(
            (key.format.as_str(), key.shape.as_str(), key.kernel.as_str()),
            ("CSR", "-", "scalar")
        );
        assert_eq!(key.model, Model::Overlap.label());

        // prepare() records what it selected.
        let machine = MachineProfile::paper_testbed();
        let profile = KernelProfile::uniform(1e-9, 0.5);
        let prepared = PreparedMatrix::prepare(&csr, Model::Mem, &machine, &profile, true);
        let sel = prepared.selection().unwrap();
        assert_eq!(sel.model, Model::Mem);
        assert!(sel.predicted > 0.0);
        assert_eq!(
            prepared.residual_key().unwrap(),
            residual_key_for(prepared.config(), Model::Mem)
        );
    }

    #[test]
    fn residual_keys_label_every_family_distinctly() {
        use std::collections::BTreeSet;
        let keys: BTreeSet<String> = Config::enumerate_extended(true)
            .into_iter()
            .map(|c| residual_key_for(c, Model::Overlap).to_string())
            .collect();
        assert_eq!(keys.len(), Config::enumerate_extended(true).len());
    }

    #[test]
    fn pooled_sell_config_matches_serial_bitwise() {
        // The hot-swap path (`from_config_pooled`) must reproduce the
        // serial product bit for bit for every configuration, SELL
        // included. Strips split on block rows, segments and slices, so
        // each converts to exactly the blocks of the whole-matrix
        // conversion (and SELL's per-row chains are self-contained, so
        // strip-local permutations cannot show).
        let k = 3;
        let specs = [
            GenSpec::FemBlocks {
                nodes: 70,
                dof: 3,
                neighbors: 4,
            },
            GenSpec::Banded {
                n: 203,
                bandwidth: 6,
                fill: 0.6,
            },
            GenSpec::DiagRuns { n: 197, n_diags: 5 },
            GenSpec::PowerLaw {
                n: 211,
                avg_deg: 5,
                alpha: 1.5,
            },
        ];
        for (m, spec) in specs.iter().enumerate() {
            let csr = &spec.build(m as u64 + 1);
            let x = random_vector::<f64>(csr.n_cols() * k, m as u64);
            let x1 = &x[..csr.n_cols()];
            for config in Config::enumerate_extended(true) {
                let serial = PreparedMatrix::from_config(config, csr);
                let (want, want_k) = (serial.spmv(x1), serial.spmv_multi(&x, k));
                for threads in [2, 3] {
                    let pooled =
                        PreparedMatrix::from_config_pooled(config, csr, threads, PinPolicy::None);
                    assert!(pooled.is_pooled());
                    assert_eq!(pooled.spmv(x1), want, "matrix {m} {config} x{threads}");
                    assert_eq!(
                        pooled.spmv_multi(&x, k),
                        want_k,
                        "matrix {m} {config} x{threads} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn get_versioned_sees_the_latest_publication() {
        let r = Registry::<f64>::with_shards(4);
        r.publish(MatrixId(3), prepared(1.0));
        r.publish(MatrixId(3), prepared(7.0));
        let (v, p) = r.get_versioned(MatrixId(3)).unwrap();
        assert_eq!(v, 2);
        assert_eq!(p.spmv(&[1.0; 8]), vec![7.0; 8]);
    }
}
