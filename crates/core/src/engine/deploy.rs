//! Live weight deployment: named operands, row-level change tracking, and atomic
//! generation swaps under live serving traffic.
//!
//! A [`WeightStore`] holds the *current* version of every named serving operand as an
//! immutable [`Generation`]. Deploying new weights ([`push`](WeightStore::push)) is
//! incremental end to end:
//!
//! 1. **Row diff** — every generation keeps a per-row content hash; a pushed matrix is
//!    re-hashed row by row and diffed against the resident generation, so the store
//!    knows exactly which rows changed.
//! 2. **Zobrist fingerprint** — the store-level fingerprint of an operand is an XOR
//!    fold of position-mixed row hashes, so a push updates it *incrementally*: XOR out
//!    the dirty rows' old terms, XOR in their new ones, O(dirty) instead of O(rows)
//!    (and independently verifiable by refolding from scratch).
//! 3. **Band-granular re-preparation** — a generation owns its prepared form as fixed
//!    [`BAND_ROWS`]-row bands, each its own `Arc<PreparedSeries>`. A deploy decomposes
//!    only the bands holding a changed row (every band for a new name or config) and
//!    shares the clean bands' `Arc`s with the generation it replaces, so a superseded
//!    band is freed as soon as the last in-flight window drops it. Band decompositions
//!    run on the deploying thread and never enter the engine's cache. Decomposition is
//!    row-local and every band term is packed for the backend the *whole* operand's
//!    shape selects, so a banded generation answers bitwise as the whole operand's
//!    prepared series would. The [`DeployReport`] counts exactly the bands this deploy
//!    decomposed.
//! 4. **Atomic swap** — the new [`Generation`] is installed under a brief store lock
//!    *after* preparation completes. Requests resolve operands by cloning the resident
//!    generation's `Arc` ([`resolve`](WeightStore::resolve)), so enqueue never blocks
//!    on an in-progress deploy, in-flight windows keep executing the old generation's
//!    bands bitwise-unchanged (the request built at enqueue carries them), and new
//!    enqueues see the new weights the moment the swap lands.
//!
//! Preparation runs **outside** the store lock and under `catch_unwind`: a deploy that
//! panics mid-preparation (see the chaos suite's [`FaultPlan`](super::FaultPlan)
//! schedules) surfaces as [`DeployError::PreparePanicked`] and leaves the store
//! exactly as it was — readers never observe a torn generation.
//!
//! A snapshot (`engine::persist`) saves every live operand's configuration, row hashes
//! and bands. Loaded back ([`load_snapshot`](super::load_snapshot)), those operands are
//! not resolvable — a snapshot holds prepared state, not weights — but a `register` of
//! the same name, configuration and shape reuses their bands as it would a resident
//! generation's, so re-registering unchanged weights decomposes nothing.

use super::batch::describe_panic;
use super::prepared::PreparedSeries;
use super::sync::lock_or_panic;
use super::{BatchRequest, ExecutionEngine};
use crate::config::TasdConfig;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use tasd_tensor::hash::{avalanche, hash_f32s};
use tasd_tensor::Matrix;

/// Rows per band: the unit a generation prepares, shares across deploys, and executes.
/// The last band of an operand takes the ragged remainder.
pub const BAND_ROWS: usize = 64;

const M: u64 = 0x9E37_79B9_7F4A_7C15;

/// Content hash of one row (element bit patterns, so the diff is bitwise-exact:
/// `-0.0` vs `0.0` or NaN payload changes count as changes).
fn row_hash(row: &[f32]) -> u64 {
    hash_f32s(row, 1, row.len() as u64)
}

fn row_hashes(matrix: &Matrix) -> Vec<u64> {
    (0..matrix.rows())
        .map(|r| row_hash(matrix.row(r)))
        .collect()
}

/// The zobrist term of row `r`: its content hash mixed with its position, so swapping
/// two rows' contents changes the fold even though the multiset of hashes is equal.
fn zobrist_term(hash: u64, row: usize) -> u64 {
    avalanche(hash ^ avalanche(row as u64 ^ M))
}

/// XOR fold of every row's zobrist term — the from-scratch form of the store
/// fingerprint ([`Generation::store_fingerprint`]). Pushes maintain it incrementally;
/// tests verify both forms agree.
pub(crate) fn zobrist_fold(row_hashes: &[u64]) -> u64 {
    row_hashes
        .iter()
        .enumerate()
        .fold(0, |acc, (r, &h)| acc ^ zobrist_term(h, r))
}

/// The row ranges of an operand's bands: `[0, 64), [64, 128), …`, the last ragged.
pub(crate) fn band_ranges(rows: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rows)
        .step_by(BAND_ROWS)
        .map(move |r0| (r0, (r0 + BAND_ROWS).min(rows)))
}

/// A generation's prepared form as requests execute it: the weights, their
/// configuration, and one prepared series per band. [`Generation::request`] hands it to
/// the request, so a banded group skips the fingerprint memo and the cache.
#[derive(Debug)]
pub(crate) struct Banded {
    pub(crate) matrix: Arc<Matrix>,
    pub(crate) config: TasdConfig,
    /// The generation's store fingerprint (what batch telemetry reports for the group).
    pub(crate) fingerprint: u64,
    pub(crate) bands: Vec<Arc<PreparedSeries>>,
}

impl Banded {
    /// Whether `request` still names these weights and this configuration — a caller
    /// may have replaced the request's public `a` or `config` after building it, and
    /// then the bands no longer describe what it asks for.
    pub(crate) fn serves(&self, request: &BatchRequest) -> bool {
        Arc::ptr_eq(&self.matrix, &request.a) && request.config.as_ref() == Some(&self.config)
    }

    /// Stored non-zeros across every band's terms (the whole operand's series nnz).
    pub(crate) fn nnz(&self) -> usize {
        self.bands.iter().map(|band| band.nnz()).sum()
    }
}

/// One immutable version of a named serving operand: the weights, their decomposition
/// configuration, their prepared bands, and the row-hash bookkeeping the next deploy
/// will diff against.
///
/// Generations are handed out behind `Arc`s and never mutated: a request that resolved
/// a generation before a swap keeps executing that exact version — bitwise — however
/// many deploys land while it is in flight.
#[derive(Debug)]
pub struct Generation {
    name: String,
    number: u64,
    row_hashes: Vec<u64>,
    operand: Arc<Banded>,
}

impl Generation {
    /// The operand's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store-wide generation number this version was installed at (monotonically
    /// increasing across all named operands; see [`WeightStore::generation`]).
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The weights themselves. Shared, immutable: this is the `Arc` serving requests
    /// capture at enqueue.
    pub fn matrix(&self) -> &Arc<Matrix> {
        &self.operand.matrix
    }

    /// The decomposition configuration requests against this operand use.
    pub fn config(&self) -> &TasdConfig {
        &self.operand.config
    }

    /// The zobrist-folded store fingerprint of this version (see the [module
    /// docs](self)): a cheap whole-operand identity deploys maintain incrementally.
    pub fn store_fingerprint(&self) -> u64 {
        self.operand.fingerprint
    }

    /// The prepared bands, in row order: band `i` is rows
    /// `i·BAND_ROWS .. min((i+1)·BAND_ROWS, rows)` decomposed under
    /// [`config`](Self::config). A band a deploy left clean is the same allocation as in
    /// the generation it replaced.
    pub fn bands(&self) -> &[Arc<PreparedSeries>] {
        &self.operand.bands
    }

    /// Builds the serving request `self · b` against this generation's weights and
    /// configuration. The request carries the generation's bands, captured here, at
    /// request-build time — the swap-safety contract in the [module docs](self)
    /// follows from that.
    pub fn request(&self, b: Matrix) -> BatchRequest {
        BatchRequest::banded(Arc::clone(&self.operand), b)
    }
}

/// What a deploy did, returned by [`WeightStore::register`] / [`WeightStore::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeployReport {
    /// The store generation counter after this deploy (unchanged when the push was a
    /// no-op: zero dirty rows keeps the resident generation, `Arc` and all).
    pub generation: u64,
    /// Rows whose content hash changed (every row for a register).
    pub dirty_rows: usize,
    /// Total rows of the operand.
    pub total_rows: usize,
    /// Bands holding at least one dirty row (every band for a register).
    pub dirty_shards: usize,
    /// Total bands of the operand: ⌈rows / [`BAND_ROWS`]⌉.
    pub total_shards: usize,
    /// Bands this deploy decomposed — exact, whatever else runs on the engine. A push
    /// decomposes its dirty bands; a register decomposes every band it cannot reuse from
    /// the resident generation or a restored snapshot of the same name, configuration
    /// and shape. Also counted in [`PrepStats::prepares`](super::PrepStats::prepares).
    pub prepares: u64,
}

/// Why a deploy was rejected. The store is left untouched in every case.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeployError {
    /// [`WeightStore::push`] named an operand that was never
    /// [`register`](WeightStore::register)ed.
    UnknownOperand {
        /// The name the push used.
        name: String,
    },
    /// The pushed matrix's shape disagrees with the resident generation's (a deploy
    /// replaces weights, it does not reshape the model).
    ShapeMismatch {
        /// The resident generation's shape.
        expected: (usize, usize),
        /// The pushed matrix's shape.
        got: (usize, usize),
    },
    /// Preparation panicked (e.g. an injected [`FaultSite::Decompose`]
    /// (super::FaultSite::Decompose) fault). The resident generation stays installed
    /// and serving continues on it.
    PreparePanicked {
        /// The panic payload, when it carried a message.
        payload: String,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::UnknownOperand { name } => {
                write!(f, "unknown operand {name:?}: register it before pushing")
            }
            DeployError::ShapeMismatch { expected, got } => write!(
                f,
                "pushed shape {}x{} does not match resident {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            DeployError::PreparePanicked { payload } => {
                write!(f, "preparation panicked during deploy: {payload}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// What a snapshot keeps of one operand: its prepared bands and the row hashes a
/// `register` diffs them by — not its weights.
#[derive(Debug)]
pub(crate) struct SavedOperand {
    pub(crate) name: String,
    pub(crate) config: TasdConfig,
    pub(crate) shape: (usize, usize),
    pub(crate) row_hashes: Vec<u64>,
    pub(crate) bands: Vec<Arc<PreparedSeries>>,
}

#[derive(Debug, Default)]
struct StoreState {
    entries: HashMap<String, Arc<Generation>>,
    /// Operands loaded from a snapshot and not registered since: never resolvable, only
    /// the source a matching `register` reuses bands from.
    restored: HashMap<String, Arc<SavedOperand>>,
    /// Monotonic deploy counter across all names; 0 = nothing ever deployed.
    generation: u64,
}

/// The row hashes and bands a deploy diffs against: the resident generation, or a
/// restored operand.
type Base<'a> = (&'a [u64], &'a [Arc<PreparedSeries>]);

/// The deployment surface: named operands, each resolving to its current
/// [`Generation`], swapped atomically by [`register`](Self::register) /
/// [`push`](Self::push). See the [module docs](self) for the full lifecycle.
///
/// The store's lock is held only for resolve/install — never across hashing or
/// preparation — so [`resolve`](Self::resolve) (and therefore serving enqueue) never
/// blocks on an in-progress deploy.
#[derive(Debug)]
pub struct WeightStore {
    engine: Arc<ExecutionEngine>,
    state: Mutex<StoreState>,
}

impl WeightStore {
    /// An empty store preparing bands with `engine`'s planner and kernels.
    pub fn new(engine: Arc<ExecutionEngine>) -> Self {
        WeightStore {
            engine,
            state: Mutex::new(StoreState::default()),
        }
    }

    /// The engine this store prepares with.
    pub fn engine(&self) -> &Arc<ExecutionEngine> {
        &self.engine
    }

    /// The store's deploy counter: incremented by every installed deploy, 0 when
    /// nothing was ever deployed. Operators compare this against a client-side expected
    /// value to verify a deploy landed (it is surfaced in the serve Stats frame).
    pub fn generation(&self) -> u64 {
        lock_or_panic(&self.state, "weight store").generation
    }

    /// The registered operand names, sorted (deterministic for tests and tooling).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock_or_panic(&self.state, "weight store")
            .entries
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The current generation of `name`, if registered. A brief lock and an `Arc`
    /// clone — this is the per-request resolve path, and it never waits on a deploy.
    pub fn resolve(&self, name: &str) -> Option<Arc<Generation>> {
        lock_or_panic(&self.state, "weight store")
            .entries
            .get(name)
            .map(Arc::clone)
    }

    /// Prepared bytes resident for serving: the bands of every live generation and
    /// restored operand plus the engine's prepared cache, each allocation counted once.
    /// A superseded band stops counting once the store replaced it, and is freed once
    /// the last in-flight request holding it completes.
    pub fn bytes_resident(&self) -> usize {
        let bands: Vec<Arc<PreparedSeries>> = {
            let state = lock_or_panic(&self.state, "weight store");
            let live = state.entries.values().map(|g| g.bands());
            let restored = state.restored.values().map(|s| s.bands.as_slice());
            live.chain(restored).flatten().cloned().collect()
        };
        lock_or_panic(&self.engine.cache, "prepared cache").bytes_resident_with(&bands)
    }

    /// Registers (or wholesale replaces) `name` with `matrix` decomposed under
    /// `config`. Every row and band counts as dirty in the report, but a band whose
    /// rows equal the resident generation's — or a restored snapshot's, for a name
    /// not yet registered since the restart — under the same configuration and shape is
    /// shared instead of decomposed: re-registering unchanged weights decomposes
    /// nothing. A new name or configuration decomposes every band.
    ///
    /// # Errors
    ///
    /// [`DeployError::PreparePanicked`] if preparation panicked; the store is left
    /// unchanged.
    pub fn register(
        &self,
        name: &str,
        matrix: impl Into<Arc<Matrix>>,
        config: TasdConfig,
    ) -> Result<DeployReport, DeployError> {
        let matrix = matrix.into();
        let row_hashes = row_hashes(&matrix);
        let (resident, restored) = {
            let state = lock_or_panic(&self.state, "weight store");
            (
                state.entries.get(name).cloned(),
                state.restored.get(name).cloned(),
            )
        };
        let base: Option<Base> = match (&resident, &restored) {
            (Some(g), _) if g.config() == &config && g.matrix().shape() == matrix.shape() => {
                Some((&g.row_hashes, g.bands()))
            }
            (_, Some(saved)) if saved.config == config && saved.shape == matrix.shape() => {
                Some((&saved.row_hashes, &saved.bands))
            }
            _ => None,
        };
        let (bands, prepares) = self.prepare_bands(&matrix, &config, &row_hashes, base)?;
        let total = bands.len();
        let rows = matrix.rows();
        let store_fingerprint = zobrist_fold(&row_hashes);
        let generation = self.install(name, |_| Generation {
            name: name.to_string(),
            number: 0,
            row_hashes,
            operand: Arc::new(Banded {
                matrix,
                config,
                fingerprint: store_fingerprint,
                bands,
            }),
        });
        Ok(DeployReport {
            generation,
            dirty_rows: rows,
            total_rows: rows,
            dirty_shards: total,
            total_shards: total,
            prepares,
        })
    }

    /// Pushes new weights for a registered operand, re-preparing **only the dirty
    /// bands** (see the [module docs](self)) and then swapping the generation
    /// atomically. A push whose every row hash is unchanged is a no-op: the resident
    /// generation — its `Arc`s included — stays installed and the report shows zero
    /// dirty rows.
    ///
    /// # Errors
    ///
    /// [`DeployError::UnknownOperand`] for an unregistered name,
    /// [`DeployError::ShapeMismatch`] when the shapes disagree, and
    /// [`DeployError::PreparePanicked`] when preparation panicked. The store is left
    /// unchanged in every error case.
    pub fn push(
        &self,
        name: &str,
        matrix: impl Into<Arc<Matrix>>,
    ) -> Result<DeployReport, DeployError> {
        let matrix = matrix.into();
        let base = self
            .resolve(name)
            .ok_or_else(|| DeployError::UnknownOperand {
                name: name.to_string(),
            })?;
        if matrix.shape() != base.matrix().shape() {
            return Err(DeployError::ShapeMismatch {
                expected: base.matrix().shape(),
                got: matrix.shape(),
            });
        }
        let row_hashes = row_hashes(&matrix);
        let dirty: Vec<usize> = (0..matrix.rows())
            .filter(|&r| row_hashes[r] != base.row_hashes[r])
            .collect();
        let rows = matrix.rows();
        let total = base.bands().len();
        if dirty.is_empty() {
            return Ok(DeployReport {
                generation: base.number,
                dirty_rows: 0,
                total_rows: rows,
                dirty_shards: 0,
                total_shards: total,
                prepares: 0,
            });
        }
        // Incremental zobrist update: XOR out the dirty rows' old terms, in the new.
        // O(dirty rows); `zobrist_fold` from scratch is the cross-check (tested).
        let incremental = dirty.iter().fold(base.store_fingerprint(), |acc, &r| {
            acc ^ zobrist_term(base.row_hashes[r], r) ^ zobrist_term(row_hashes[r], r)
        });
        // Preparation outside the store lock: the base's clean bands are shared, dirty
        // bands decompose. A panic here must not tear the store — the old generation
        // stays resolvable throughout.
        let config = base.config().clone();
        let (bands, prepares) = self.prepare_bands(
            &matrix,
            &config,
            &row_hashes,
            Some((&base.row_hashes, base.bands())),
        )?;
        let generation = self.install(name, |resident| {
            // A concurrent push may have raced us since `base` was read; the bands and
            // row hashes are self-consistent either way (clean bands are clean against
            // `base`, whose rows they hold), but the incremental fingerprint delta was
            // taken against `base` — refold from scratch if the base moved underneath.
            let store_fingerprint = if resident.is_some_and(|current| current.number != base.number)
            {
                zobrist_fold(&row_hashes)
            } else {
                incremental
            };
            Generation {
                name: name.to_string(),
                number: 0,
                row_hashes,
                operand: Arc::new(Banded {
                    matrix,
                    config,
                    fingerprint: store_fingerprint,
                    bands,
                }),
            }
        });
        Ok(DeployReport {
            generation,
            dirty_rows: dirty.len(),
            total_rows: rows,
            dirty_shards: prepares as usize,
            total_shards: total,
            prepares,
        })
    }

    /// Installs the generation `build` makes from the resident one (if any) under the
    /// store lock, numbering it with the next deploy counter value, and retires any
    /// restored operand of the same name. Returns the new generation number.
    fn install(
        &self,
        name: &str,
        build: impl FnOnce(Option<&Arc<Generation>>) -> Generation,
    ) -> u64 {
        let mut state = lock_or_panic(&self.state, "weight store");
        state.generation += 1;
        let number = state.generation;
        let generation = Generation {
            number,
            ..build(state.entries.get(name))
        };
        state.entries.insert(name.to_string(), Arc::new(generation));
        state.restored.remove(name);
        number
    }

    /// The bands of `matrix` under `config`: a band whose rows all hash as in `base`
    /// shares the base's band, every other band decomposes here — on the deploying
    /// thread, under `catch_unwind`, with no store lock held. Returns the bands and how
    /// many were decomposed.
    fn prepare_bands(
        &self,
        matrix: &Matrix,
        config: &TasdConfig,
        row_hashes: &[u64],
        base: Option<Base>,
    ) -> Result<(Vec<Arc<PreparedSeries>>, u64), DeployError> {
        let mut prepares = 0u64;
        let bands = catch_unwind(AssertUnwindSafe(|| {
            band_ranges(matrix.rows())
                .enumerate()
                .map(|(i, (r0, r1))| match base {
                    Some((hashes, bands)) if hashes[r0..r1] == row_hashes[r0..r1] => {
                        Arc::clone(&bands[i])
                    }
                    _ => {
                        prepares += 1;
                        let fingerprint = zobrist_fold(&row_hashes[r0..r1]);
                        self.engine
                            .prepare_band(matrix, (r0, r1), config, fingerprint)
                    }
                })
                .collect()
        }))
        .map_err(|payload| DeployError::PreparePanicked {
            payload: describe_panic(payload.as_ref()),
        })?;
        Ok((bands, prepares))
    }

    /// Every live operand (and every restored one not registered since), as a snapshot
    /// saves them, sorted by name. No name is both: `install` retires a name's restored
    /// copy and `restore` skips live names.
    pub(crate) fn saved_operands(&self) -> Vec<Arc<SavedOperand>> {
        let state = lock_or_panic(&self.state, "weight store");
        let live = state.entries.values().map(|g| {
            Arc::new(SavedOperand {
                name: g.name.clone(),
                config: g.config().clone(),
                shape: g.matrix().shape(),
                row_hashes: g.row_hashes.clone(),
                bands: g.bands().to_vec(),
            })
        });
        let restored = state.restored.values().cloned();
        let mut operands: Vec<Arc<SavedOperand>> = live.chain(restored).collect();
        operands.sort_by(|a, b| a.name.cmp(&b.name));
        operands
    }

    /// Adopts operands loaded from a snapshot as sources for `register`. A name that is
    /// already live keeps its generation; the restored copy is dropped.
    pub(crate) fn restore(&self, operands: Vec<SavedOperand>) {
        let mut state = lock_or_panic(&self.state, "weight store");
        for operand in operands {
            if !state.entries.contains_key(&operand.name) {
                state
                    .restored
                    .insert(operand.name.clone(), Arc::new(operand));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_tensor::MatrixGenerator;

    /// The engine `tasd-serve` builds.
    fn engine() -> Arc<ExecutionEngine> {
        Arc::new(ExecutionEngine::builder().build())
    }

    fn cfg() -> TasdConfig {
        TasdConfig::parse("2:8+1:8").unwrap()
    }

    #[test]
    fn register_prepares_every_shard() {
        let engine = engine();
        let store = WeightStore::new(Arc::clone(&engine));
        let a = MatrixGenerator::seeded(11).sparse_normal(256, 64, 0.8);
        let report = store.register("mlp.0", a, cfg()).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.total_shards, 4);
        assert_eq!(report.dirty_shards, 4);
        assert_eq!(report.prepares, 4, "one decomposition per band");
        assert_eq!(engine.prep_stats().prepares, 4);
        assert_eq!(
            engine.cache_stats().entries,
            0,
            "bands never enter the cache"
        );
        assert_eq!(store.generation(), 1);
        assert_eq!(store.names(), vec!["mlp.0".to_string()]);
        let generation = store.resolve("mlp.0").unwrap();
        assert_eq!(generation.number(), 1);
        assert_eq!(generation.config(), &cfg());
        assert_eq!(generation.bands().len(), 4);
    }

    #[test]
    fn push_reprepares_only_dirty_shards() {
        let engine = engine();
        let store = WeightStore::new(Arc::clone(&engine));
        let mut gen = MatrixGenerator::seeded(12);
        let a = gen.sparse_normal(256, 64, 0.8);
        store.register("w", a.clone(), cfg()).unwrap();
        let before = store.resolve("w").unwrap();
        // Touch one row in the second band.
        let mut b = a.clone();
        b[(70, 3)] += 1.0;
        let report = store.push("w", b).unwrap();
        assert_eq!(report.dirty_rows, 1);
        assert_eq!(report.total_rows, 256);
        assert_eq!(report.dirty_shards, 1);
        assert_eq!(report.total_shards, 4);
        assert_eq!(report.prepares, 1, "only the dirty band decomposes");
        assert_eq!(report.generation, 2);
        let resolved = store.resolve("w").unwrap();
        assert_eq!(resolved.number(), 2);
        assert_eq!(resolved.matrix()[(70, 3)], a[(70, 3)] + 1.0);
        for (i, (old, new)) in before.bands().iter().zip(resolved.bands()).enumerate() {
            assert_eq!(Arc::ptr_eq(old, new), i != 1, "band {i} shared iff clean");
        }
    }

    #[test]
    fn re_registering_unchanged_weights_decomposes_nothing() {
        let engine = engine();
        let store = WeightStore::new(Arc::clone(&engine));
        let a = MatrixGenerator::seeded(17).sparse_normal(130, 24, 0.7);
        store.register("w", a.clone(), cfg()).unwrap();
        let report = store.register("w", a.clone(), cfg()).unwrap();
        assert_eq!(report.prepares, 0);
        assert_eq!((report.dirty_rows, report.dirty_shards), (130, 3));
        // A new configuration invalidates every band.
        let other = TasdConfig::parse("2:8").unwrap();
        assert_eq!(store.register("w", a, other).unwrap().prepares, 3);
    }

    #[test]
    fn identical_push_is_a_no_op_that_keeps_the_resident_arc() {
        let engine = engine();
        let store = WeightStore::new(engine);
        let a = MatrixGenerator::seeded(13).sparse_normal(32, 16, 0.7);
        store.register("w", a.clone(), cfg()).unwrap();
        let before = store.resolve("w").unwrap();
        let report = store.push("w", a).unwrap();
        assert_eq!(report.dirty_rows, 0);
        assert_eq!(report.dirty_shards, 0);
        assert_eq!(report.prepares, 0);
        assert_eq!(report.generation, before.number(), "generation unchanged");
        let after = store.resolve("w").unwrap();
        assert!(
            Arc::ptr_eq(&before, &after),
            "the resident generation (weights and bands) must survive"
        );
    }

    #[test]
    fn incremental_fingerprint_matches_from_scratch_fold() {
        let engine = engine();
        let store = WeightStore::new(engine);
        let mut gen = MatrixGenerator::seeded(14);
        let a = gen.sparse_normal(48, 24, 0.6);
        store.register("w", a.clone(), cfg()).unwrap();
        let mut b = a.clone();
        b[(0, 0)] = 42.0;
        b[(47, 23)] = -7.5;
        store.push("w", b.clone()).unwrap();
        let resolved = store.resolve("w").unwrap();
        let scratch = row_hashes(&b);
        assert_eq!(
            resolved.store_fingerprint(),
            zobrist_fold(&scratch),
            "incremental zobrist delta must equal the from-scratch fold"
        );
        // Row *swaps* change the fingerprint even though the hash multiset is equal.
        let swapped = zobrist_fold(&[scratch[1], scratch[0]]);
        assert_ne!(swapped, zobrist_fold(&[scratch[0], scratch[1]]));
    }

    #[test]
    fn sign_of_zero_and_nan_payload_changes_are_dirty() {
        // 8·2 + 3 columns: every lane position of a full chunk and a ragged tail.
        let store = WeightStore::new(engine());
        let cols = 19;
        let mut a = Matrix::zeros(2, cols);
        a.row_mut(1).fill(f32::from_bits(0x7FC0_0001));
        store.register("w", a.clone(), cfg()).unwrap();
        let mut current = a;
        for col in 0..cols {
            let mut flipped = current.clone();
            flipped[(0, col)] = -flipped[(0, col)];
            let report = store.push("w", flipped.clone()).unwrap();
            assert_eq!(report.dirty_rows, 1, "0.0 -> -0.0 at column {col}");
            let mut payload = flipped.clone();
            payload[(1, col)] = f32::from_bits(0x7FC0_0100 + col as u32);
            let report = store.push("w", payload.clone()).unwrap();
            assert_eq!(report.dirty_rows, 1, "NaN payload at column {col}");
            current = payload;
        }
    }

    #[test]
    fn band_terms_run_the_whole_operands_backends() {
        // The six BERT encoder shapes at their pruning levels and configurations, and a
        // narrow operand whose 64x64 bands alone would fall in the small-shape bucket.
        let layers: [(usize, usize, f64, &str); 7] = [
            (768, 768, 0.77, "4:8"),
            (768, 768, 0.88, "2:8+1:8"),
            (768, 768, 0.88, "2:8+1:8"),
            (768, 768, 0.88, "2:8+1:8"),
            (3072, 768, 0.91, "2:8+1:8"),
            (768, 3072, 0.92, "2:8"),
            (1024, 64, 0.9, "2:8+1:8"),
        ];
        let engine = engine();
        let store = WeightStore::new(Arc::clone(&engine));
        let mut gen = MatrixGenerator::seeded(18);
        for (i, (rows, cols, sparsity, config)) in layers.into_iter().enumerate() {
            let a = Arc::new(gen.magnitude_pruned(rows, cols, sparsity));
            let config = TasdConfig::parse(config).unwrap();
            store
                .register(&i.to_string(), Arc::clone(&a), config.clone())
                .unwrap();
            let whole = engine.prepare_shared(&a, &config);
            let generation = store.resolve(&i.to_string()).unwrap();
            for (b, band) in generation.bands().iter().enumerate() {
                for (t, term) in band.terms().iter().enumerate() {
                    assert_eq!(
                        term.backend(),
                        whole.terms()[t].backend(),
                        "layer {i} band {b} term {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn push_errors_leave_the_store_untouched() {
        let engine = engine();
        let store = WeightStore::new(engine);
        let a = MatrixGenerator::seeded(15).sparse_normal(32, 16, 0.5);
        assert!(matches!(
            store.push("ghost", a.clone()),
            Err(DeployError::UnknownOperand { .. })
        ));
        store.register("w", a, cfg()).unwrap();
        let wrong = Matrix::zeros(16, 16);
        assert!(matches!(
            store.push("w", wrong),
            Err(DeployError::ShapeMismatch { .. })
        ));
        assert_eq!(store.generation(), 1);
        assert_eq!(store.resolve("w").unwrap().number(), 1);
    }

    #[test]
    fn unsharded_engines_deploy_as_one_shard() {
        // An operand of at most BAND_ROWS rows is one band.
        let engine = Arc::new(ExecutionEngine::builder().workers(1).build());
        let store = WeightStore::new(engine);
        let a = MatrixGenerator::seeded(16).sparse_normal(32, 16, 0.5);
        let report = store.register("w", a.clone(), cfg()).unwrap();
        assert_eq!(report.total_shards, 1);
        assert_eq!(report.prepares, 1);
        let mut b = a;
        b[(3, 3)] = 9.0;
        let report = store.push("w", b).unwrap();
        assert_eq!(report.dirty_shards, 1);
        assert_eq!(report.total_shards, 1);
        assert_eq!(report.prepares, 1, "the one band re-prepares");
    }
}
