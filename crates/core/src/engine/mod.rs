//! The unified execution engine: one seam for all series-GEMM traffic.
//!
//! [`ExecutionEngine`] ties the pieces of TASD execution together behind a single
//! object:
//!
//! 1. **Planning** — for each GEMM (a decomposed [`TasdSeries`] term by term, or a plain
//!    dense matrix), pick a [`GemmBackend`] from the term's density and shape using the
//!    measured table [`BackendTable::MEASURED`], and decide whether the output rows are
//!    worth tiling across the executor's workers ([`MatmulPlan`]). Plans are
//!    **memoized** per `(operand fingerprint, configuration, output-width bucket)`, so
//!    steady-state serving never replans.
//! 2. **Preparing** — at decomposition time, materialize every term into its planned
//!    backend's *native* storage format ([`PreparedSeries`]), so each kernel hits its
//!    fast path and the per-entry dyn-dispatched fallback never runs on a planned path.
//! 3. **Caching** — memoize prepared decompositions in an LRU [`DecompositionCache`]
//!    keyed by (matrix fingerprint, configuration), so repeated requests against the
//!    same tensor skip the greedy extraction *and* the format packing entirely.
//! 4. **Execution** — run every term through the [`GemmBackend`] trait; no caller
//!    dispatches to a format-specific kernel directly. Parallel work — the row tiles of
//!    a large GEMM and the band runs of a named operand, from any number of concurrent
//!    callers — runs on the engine's **one shared executor**, a worker pool sized once
//!    at build time ([`EngineBuilder::workers`]): nothing in the engine spawns threads
//!    per call.
//! 5. **Serving** — [`ServingEngine`] (from [`EngineBuilder::serving`]) is the
//!    session-based front-end: callers [`enqueue`](ServingEngine::enqueue) requests and
//!    collect [`ResponseHandle`]s while a micro-batch window coalesces in-flight
//!    traffic into [`submit`](ExecutionEngine::submit)-shaped batches (see *Serving
//!    sessions* below).
//!
//! The free functions [`series_gemm`](crate::series_gemm) /
//! [`series_gemm_into`](crate::series_gemm_into) are thin wrappers over the process-wide
//! [`ExecutionEngine::global`] engine, so existing call sites keep working; anything that
//! wants control (backend choice, cache sizing, parallelism) builds its own:
//!
//! ```
//! use tasd::{ExecutionEngine, TasdConfig};
//! use tasd_tensor::{gemm, relative_frobenius_error, MatrixGenerator};
//!
//! let engine = ExecutionEngine::builder().cache_capacity(32).build();
//! let mut gen = MatrixGenerator::seeded(7);
//! let a = gen.sparse_normal(64, 64, 0.85);
//! let b = gen.normal(64, 32, 0.0, 1.0);
//!
//! let config = TasdConfig::parse("4:8+1:8").unwrap();
//! let prepared = engine.prepare(&a, &config);      // decomposed + packed, cached
//! let plan = engine.plan_prepared(&prepared, b.cols());
//! assert!(plan.num_terms() <= 2);
//!
//! let c = engine.series_gemm_prepared(&prepared, &b).unwrap();
//! let exact = gemm(&a, &b).unwrap();
//! assert!(relative_frobenius_error(&exact, &c) < 0.3);
//! assert_eq!(engine.cache_stats().misses, 1);
//! ```
//!
//! # Prepared execution: the prepare-once / execute-many contract
//!
//! [`ExecutionEngine::prepare`] performs, **once per distinct (operand content,
//! configuration) pair**, everything the hot path should never repeat:
//!
//! * the greedy decomposition itself;
//! * the per-term backend choice (via [`BackendTable::MEASURED`]);
//! * the materialization of each term into its chosen backend's native format
//!   (dense [`Matrix`] for dense-planned terms, CSR for CSR-planned terms, the
//!   compressed N:M term shared as-is for structured-planned terms).
//!
//! Execution entry points that work from a [`PreparedSeries`]
//! ([`series_gemm_prepared`](ExecutionEngine::series_gemm_prepared),
//! [`decompose_gemm`](ExecutionEngine::decompose_gemm),
//! [`submit`](ExecutionEngine::submit)) therefore perform **zero format conversions and
//! zero replans on a cache hit** — the [`PrepStats`] counters
//! ([`ExecutionEngine::prep_stats`]) make that auditable: take a delta around a warm
//! call and `conversions`, `plans_computed`, and `fingerprint_scans` must all be zero.
//! Packing never changes results: every conversion preserves per-row entry order, so
//! prepared execution is bitwise identical to executing the raw series term by term.
//!
//! **When is a `PreparedSeries` (in)validated?** Never in place — it is immutable.
//! Mutating an operand yields a different content fingerprint, i.e. a *different* cache
//! key: the stale entry is simply never hit again and ages out of the LRU. Eviction and
//! [`clear_cache`](ExecutionEngine::clear_cache) drop the packed formats together with
//! the entry (`clear_cache` also drops the memoized plans and the operand-fingerprint
//! memo). There is no path that serves a prepared series whose content disagrees with
//! its key, short of a 64-bit fingerprint collision (accepted by design, see
//! [`Matrix::fingerprint`]).
//!
//! The serving path additionally memoizes operand fingerprints per *allocation*
//! (keyed by `Arc` pointer identity, holding a strong reference so the allocation can
//! neither mutate in place nor be reused): a batch of requests against a shared weight
//! tensor fingerprints it once ever, not once per call. The memo holds at most
//! [`fingerprint_memo_capacity`](EngineBuilder::fingerprint_memo_capacity) operands
//! alive; size it to the distinct live operands of your serving set, or set it to 0 to
//! pin nothing (every batch then rescans).
//!
//! # Serving sessions
//!
//! [`ServingEngine`] (from [`EngineBuilder::serving`]) coalesces independently enqueued
//! requests into micro-batch windows and runs each window through
//! [`submit`](ExecutionEngine::submit) below. Its lifecycle (enqueue → window → group →
//! execute → handle), window ownership, and deadline/overload/shutdown contracts are
//! documented in `engine/serving.rs`.
//!
//! **The executor-placement guarantee.** Every parallel job — the row tiles of a large
//! GEMM, every run of bands, from every window and every caller — runs on the engine's
//! one shared executor: a pool sized **once** at build time ([`EngineBuilder::workers`],
//! default: available parallelism) and spawned **once** (lazily;
//! [`ExecutionEngine::pool_threads`] proves it), so N concurrent serving threads,
//! sessions, or banded batches share `workers` threads instead of spawning their own.
//! Placement under load changes *when and where* a tile or band executes, never its
//! result: tiles and bands write disjoint output slabs, each output row accumulates its
//! terms in the same order however the rows are split, and groups execute bitwise
//! identically to per-request calls — so serving answers are independent of window
//! composition and thread placement.
//!
//! # Batched serving: the `submit` contract
//!
//! [`ExecutionEngine::submit`] executes a whole batch of [`BatchRequest`]s at once and is
//! the **window executor** everything above compiles down to. Its contract, which the
//! session layer preserves per window:
//!
//! * **Grouping key** — requests are grouped by `(operand fingerprint, operand shape,
//!   decomposition config)`, i.e. exactly the decomposition cache's key with "no
//!   decomposition" (`config: None`) as its own value. Each group prepares its operand
//!   at most once per batch and executes as **one** packed multi-RHS kernel pass, so a
//!   batch of requests sharing one weight tensor pays for its decomposition once and
//!   keeps the cache entry hot.
//! * **Arrival order** — groups run one after another in the order their first request
//!   arrived, each prepared, executed and answered before the next starts. Packing
//!   preserves each output column's accumulation order, so `submit` answers are bitwise
//!   identical to per-request [`series_gemm`](ExecutionEngine::series_gemm) /
//!   [`gemm`](ExecutionEngine::gemm) calls.
//!
//! # Bands: the prepared form of named operands
//!
//! A named operand ([`WeightStore`]) is prepared once, at deploy, as fixed
//! [`BAND_ROWS`]-row **bands**: each band is its own [`PreparedSeries`], owned by the
//! [`Generation`] rather than the cache. Requests built by [`Generation::request`] carry
//! the bands, so [`submit`](ExecutionEngine::submit) groups them by generation and never
//! fingerprints or looks them up. A banded group runs under the same tiling rule as a
//! whole operand's plan: above `MIN_TILED_MACS` each executor worker takes one
//! contiguous run of bands, writing its disjoint rows of the output through the
//! backends' row-range kernel `gemm_rows_into`; below it the bands run in order on the
//! calling thread.
//!
//! Banded execution is **bitwise identical** to executing the whole operand's prepared
//! series, twice over:
//!
//! * **Decomposition is row-local.** An N:M pattern constrains `M`-element blocks *along
//!   each row*, and the greedy extraction keeps the top-`N` magnitudes per block of the
//!   running residual — no information ever crosses a row boundary. A band's
//!   decomposition is exactly the corresponding rows of the whole operand's, term for
//!   term and entry for entry.
//! * **Execution is row-local.** Each output row accumulates its stored entries in the
//!   same ascending-column order whether a kernel sees the whole operand or one band,
//!   and every band term is packed for the backend the whole operand's shape selects.
//!
//! `tests/sharding.rs` locks this down across backends, sparsities, ragged and empty
//! bands, and worker counts.
//!
//! # Sizing `cache_capacity` from telemetry
//!
//! The decomposition cache reports global counters ([`ExecutionEngine::cache_stats`]:
//! hits, misses, insertions, evictions, `bytes_resident`) and per-entry counters
//! ([`ExecutionEngine::cache_entry_stats`]: per-series hit counts and byte sizes).
//! `bytes_resident` covers the **full prepared footprint**: the compressed series plus
//! every packed execution format (a dense-packed term costs `rows·cols·4` bytes, a
//! CSR-packed term roughly `12–16 bytes` per stored value; `CacheEntryStats::packed_bytes`
//! breaks out the packed share per entry). To size `cache_capacity` for a deployment:
//!
//! 1. Run a representative traffic sample against a generously sized engine.
//! 2. If `evictions > 0` while `hit_rate` is below target, capacity is too small — the
//!    working set is being displaced. Raise capacity until evictions stop growing.
//! 3. Inspect [`cache_entry_stats`](ExecutionEngine::cache_entry_stats) (hottest first):
//!    the entries with `hits == 0` after the sample are dead weight — their summed
//!    `bytes` is memory you can reclaim by lowering capacity to the hot-entry count.
//!    Entries whose `packed_bytes` dominates are paying for cross-format packing; if
//!    they are cold, that packing was wasted.
//! 4. `bytes_resident` is the number to budget against host memory; per-batch, the same
//!    figure is in [`BatchTelemetry::bytes_resident`]. Add the operand-fingerprint
//!    memo's pinned operands (at most `fingerprint_memo_capacity` live matrices) to the
//!    budget. Named operands' bands live in their generations, not the cache:
//!    [`WeightStore::bytes_resident`] counts them together with the cache.
//!
//! # Failure semantics
//!
//! Serving degrades per request, never per process. The taxonomy is the [`ServingError`]
//! enum carried in every [`BatchResponse::output`]:
//!
//! * **`ShapeMismatch`** — admission-time rejection: the request's dimensions cannot
//!   multiply. Decided before any kernel runs; the rest of the batch is unaffected.
//! * **`KernelPanicked`** — a panic during that request's *group* (decomposition,
//!   packing, or the kernel itself). The batch executor runs each group under
//!   `catch_unwind`, so a panicking group fails exactly its own member requests and
//!   every other group in the window completes **bitwise-identically** to a fault-free
//!   run. A panic in the window dispatch itself (outside any group) fails the whole
//!   window the same way — waiters are woken with the error, never left hanging on an
//!   unfilled slot.
//! * **`DeadlineExceeded`** — the request's [`BatchRequest::with_deadline`] instant (on
//!   the session's injectable [`Clock`]) passed before its window executed: resolved
//!   without spending kernel time, at dispatch or when shed by
//!   [`OverloadPolicy::ShedExpiredFirst`]. Engine-level [`submit`](ExecutionEngine::submit)
//!   has no clock and ignores deadlines.
//! * **`QueueFull`** — admission control: the session's bounded queue
//!   ([`ServingEngine::with_queue_capacity`]) was full and the [`OverloadPolicy`] chose
//!   rejection. The handle comes back already resolved; enqueue never blocks.
//! * **`Cancelled`** — the caller withdrew the request via [`ResponseHandle::cancel`].
//!   Best-effort against execution: still-parked requests are skipped at dispatch,
//!   already-executing ones run and their result is discarded (first write wins).
//! * **`ShuttingDown`** — the session closed admission. [`ServingEngine::drain`] still
//!   *executes* everything already parked; [`ServingEngine::shutdown`] abandons parked
//!   requests with this error and waits out any in-flight window. Either way **every
//!   outstanding handle resolves** — no path leaks a waiter.
//! * **`Execution`** — a structured [`TensorError`] from the kernels that is not a
//!   shape mismatch (e.g. corrupt compressed input).
//!
//! The contract is provable on demand: a seeded, deterministic [`FaultPlan`] wraps any
//! backend ([`FaultyBackend`]) or arms engine failpoints
//! ([`EngineBuilder::fault_plan`]) to inject panics, latency, or transient errors at
//! chosen call indices, and `tests/serving_faults.rs` replays chaos schedules against
//! the guarantees above (exact-k isolation, bitwise-identical survivors, zero lost
//! handles under concurrent shutdown).
//!
//! # Deploy lifecycle
//!
//! Serving survives a deploy — a weight push or a process restart — without
//! re-spending preparation, via two companion modules:
//!
//! * **Generations** ([`WeightStore`]). Named operands resolve to immutable
//!   [`Generation`] handles; a [`push`](WeightStore::push) re-hashes the new matrix
//!   per row, diffs against the resident generation, decomposes **only the bands
//!   holding dirty rows** (the clean bands' `Arc`s are shared with the new
//!   generation), and installs the new generation under a brief lock. A superseded
//!   band is freed when the last in-flight window holding it completes. Each
//!   generation's store fingerprint is the XOR fold of its position-mixed row hashes
//!   (zobrist-style), folded once per deploy from the hashes the diff already computed.
//!   Swap semantics: [`resolve`](WeightStore::resolve) is a brief-lock `Arc` clone, so
//!   *enqueue never blocks on a deploy*; in-flight requests keep the bands they
//!   captured at enqueue and finish **bitwise-correct on the old version**, while
//!   every post-swap enqueue sees the new one. A deploy that fails (shape mismatch,
//!   preparation panic) leaves the store untouched.
//! * **Persistence** (`engine::persist`). [`save_snapshot`] serializes every live
//!   operand of a store — name, configuration, shape, row hashes, and its bands'
//!   packed terms with their replayed per-term plans — to a versioned, checksummed file
//!   (format spec in the module docs); [`load_snapshot`] gives them back to a store as
//!   the source `register` reuses bands from, so a restarted server re-registering the
//!   same weights performs **zero decompositions**. Invalidation is all-or-nothing per
//!   load: any defect (bad magic, version skew, checksum mismatch, malformed operand)
//!   yields [`LoadOutcome::Cold`] with a reason, the store untouched — a stale or
//!   corrupt snapshot can cost a cold start, never correctness. A register under a
//!   different configuration or shape simply decomposes every band.
//!
//! `tasd-serve` exposes the lifecycle on the wire (`UpdateWeights` / `NamedRequest`
//! frames; see `crates/serve/README.md`) and on its command line (`--snapshot PATH`),
//! and its `Stats` frame reports the store generation, resident prepared bytes, and
//! warm-start status so operators can verify a deploy landed.
//!
//! # Enforced invariants
//!
//! The contracts above are not prose-only: `tasd-lint` (`crates/lint`, run in CI as
//! `cargo run -p tasd-lint -- --check` and as the `workspace_clean` test) statically
//! checks the engine against the policy in the repo-root `lint.toml`:
//!
//! * **No panics on the hot path.** Every serving-path function is marked
//!   `// lint: hot-path` (the `submit`/serving spine here and in `batch`/`serving`/
//!   `executor`, plus the row kernels in `tasd-tensor`): `unwrap`/`expect`,
//!   `panic!`-family macros, and unchecked slice indexing are rejected there unless
//!   an inline `allow` states why the construct cannot fire. Shape errors must
//!   surface as `Result`s at admission, never as panics mid-batch.
//! * **No allocation on the warm path.** Prepared-execution kernels
//!   (`series_gemm_prepared_into` and everything below it) are additionally marked
//!   `// lint: warm-path`: allocating calls there are rejected, keeping the
//!   prepare-once / execute-many contract honest — a warm call touches only
//!   caller-provided and prepared storage.
//! * **Lock order.** Every `Mutex` is acquired through
//!   `sync::lock_or_panic` (poison propagation that names the lock) and is
//!   registered in `lint.toml`'s lock table; nested acquisitions must follow the
//!   declared order `dispatch → clock → session → slot → engine memos → executor
//!   pool → queue → latch → faults`, so the serving layer cannot deadlock against
//!   the executor (the session clock and the fault plan keep their locks at the
//!   edges: the clock is read before deeper locks are taken, the fault plan's lock
//!   is released before an injected fault fires).
//! * **Unsafe audit.** Every `unsafe` site carries an adjacent `// SAFETY:` (or
//!   `# Safety` doc) contract, and the full inventory is pinned: `lint.toml`'s
//!   `[unsafe_audit] expected_sites` count must match exactly, so a new `unsafe`
//!   fails CI until it is both contracted and consciously added to the budget. The
//!   current sites are the executor's lifetime-erasing transmute and the AVX/FMA
//!   microkernels in `tasd-tensor`'s `backend::simd`.
//! * **SIMD dispatch.** Instruction-set selection happens exactly once per backend
//!   construction ([`SimdLevel::detect`](tasd_tensor::SimdLevel) — cached per
//!   process, overridable with `TASD_SIMD=portable` and pinned per-backend via
//!   `with_simd`): kernels never branch on `is_x86_feature_detected!` per call, and
//!   a `target_feature` kernel is only ever entered behind the construction-time
//!   check. All tiers honor the backend layer's zero-annihilation contract, so
//!   results (including NaN/Inf placement) are tier-independent; CI runs the
//!   backend suites once at the detected tier and once with the portable fallback
//!   forced.
//!
//! [`Matrix::fingerprint`]: tasd_tensor::Matrix::fingerprint

mod batch;
mod cache;
mod clock;
mod deploy;
mod dispatcher;
mod executor;
mod faults;
mod persist;
mod plan;
mod prepared;
mod serving;
mod sync;

pub use batch::{BatchRequest, BatchResponse, BatchTelemetry, GroupTelemetry, ServingError};
pub use cache::{CacheEntryStats, CacheStats, DecompositionCache};
pub use clock::{Clock, MockClock, MonotonicClock};
pub use deploy::{DeployError, DeployReport, Generation, WeightStore, BAND_ROWS};
pub use dispatcher::DispatcherHandle;
pub use faults::{FaultKind, FaultPlan, FaultRecord, FaultSite, FaultyBackend, LatchedBackend};
pub use persist::{load_snapshot, save_snapshot, LoadOutcome, SnapshotStats};
pub use plan::{BackendKind, BackendTable, MatmulPlan, TermPlan};
pub use prepared::{PreparedSeries, PreparedTerm};
pub use serving::{OverloadPolicy, ResponseHandle, ServingEngine, ServingStats, DEFAULT_MAX_BATCH};

use crate::config::TasdConfig;
use crate::decompose::decompose;
use crate::series::TasdSeries;
use cache::CacheKey;
use executor::Job;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use sync::lock_or_panic;
use tasd_tensor::backend::{CsrBackend, DenseBackend, GemmBackend, GemmOperand, NmBackend};
use tasd_tensor::{Matrix, Result, TensorError};

/// Default decomposition-cache capacity (series). Sized for one model's worth of layers.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Estimated MACs at or above which a matmul's output rows are tiled across the
/// executor's workers (2²¹ ≈ 2.1M); below it the job handoff outweighs the split.
const MIN_TILED_MACS: u64 = 1 << 21;

/// Default capacity of the operand-fingerprint memo (distinct operand allocations whose
/// fingerprints are remembered — and whose storage is pinned — across `submit` calls).
pub const DEFAULT_FINGERPRINT_MEMO_CAPACITY: usize = 128;

/// Memoized plans are bounded; past this many entries the memo is cleared wholesale
/// (plans are cheap to recompute — the memo exists to skip per-call operand scans).
const PLAN_MEMO_CAPACITY: usize = 4096;

/// Builder for [`ExecutionEngine`]; obtained from [`ExecutionEngine::builder`].
#[derive(Debug)]
pub struct EngineBuilder {
    backend: Option<Arc<dyn GemmBackend>>,
    cache_capacity: usize,
    fingerprint_memo_capacity: usize,
    workers: Option<usize>,
    faults: Option<Arc<FaultPlan>>,
}

impl EngineBuilder {
    /// Forces every term through the given backend, disabling density-driven selection
    /// (prepared series then keep every term in its stored structured format — packing
    /// for a specific kernel would fight the override). Large matmuls still tile the
    /// forced backend's row kernel across the executor's workers.
    #[must_use]
    pub fn backend(mut self, backend: Arc<dyn GemmBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Sets the decomposition-cache capacity in series (0 disables caching).
    #[must_use]
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets how many distinct operand allocations the engine remembers fingerprints for
    /// (each memo entry pins its operand alive; see the [module docs](self)). 0 disables
    /// the memo: every batch rescans its operands.
    #[must_use]
    pub fn fingerprint_memo_capacity(mut self, capacity: usize) -> Self {
        self.fingerprint_memo_capacity = capacity;
        self
    }

    /// Pins the engine's executor worker count (clamped to at least 1). This is the
    /// number of threads every parallel job in the engine — the row tiles of large
    /// GEMMs and the band runs of named operands, from any number of concurrent callers
    /// — shares; it is captured **once**, at build, and never re-read from the
    /// environment on the hot path.
    /// Defaults to the `TASD_WORKERS` environment variable when it holds a positive
    /// integer, otherwise to [`std::thread::available_parallelism`], both read at build
    /// time. `workers(1)` is the sequential engine: every kernel runs whole on the
    /// calling thread, in program order. Pin it explicitly for deterministic tests or to
    /// reserve cores for other tenants.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Arms the engine's internal failpoints (decomposition, window dispatch) against
    /// `plan` — the fault-injection side of the chaos harness ([`FaultPlan`] also wraps
    /// backends directly via [`FaultyBackend`]). Test-oriented: an unarmed engine (the
    /// default) pays nothing but an `Option` check per failpoint.
    #[must_use]
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the engine and wraps it in a [`ServingEngine`] session with the default
    /// micro-batch window — the one-call entry point to the serving lifecycle (see the
    /// [module docs](self)). Tune the window size with
    /// [`with_max_batch`](ServingEngine::with_max_batch); give the window an owner with
    /// [`spawn_dispatcher`](ServingEngine::spawn_dispatcher).
    pub fn serving(self) -> ServingEngine {
        ServingEngine::over(Arc::new(self.build()))
    }

    /// Builds the engine.
    pub fn build(self) -> ExecutionEngine {
        // The worker count is captured once, here — never re-read per call, so
        // placement never depends on when a GEMM runs.
        let workers = self.workers.unwrap_or_else(default_workers);
        ExecutionEngine {
            backend_override: self.backend,
            backends: [
                Arc::new(DenseBackend::default()),
                Arc::new(CsrBackend::default()),
                Arc::new(NmBackend::default()),
            ],
            cache: Mutex::new(DecompositionCache::new(self.cache_capacity)),
            plans: Mutex::new(PlanMemo::default()),
            fingerprints: Mutex::new(FingerprintMemo::new(self.fingerprint_memo_capacity)),
            executor: executor::Executor::new(workers),
            counters: PrepCounters::default(),
            faults: self.faults,
        }
    }
}

/// The executor worker count of an engine built without [`EngineBuilder::workers`].
fn default_workers() -> usize {
    resolve_workers(
        std::env::var("TASD_WORKERS").ok().as_deref(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    )
}

/// Applies a `TASD_WORKERS` value against the available parallelism (factored out of
/// [`default_workers`] so tests need not mutate the process environment): a positive
/// integer wins; unset, empty, non-numeric and `0` fall back to `available`.
fn resolve_workers(requested: Option<&str>, available: usize) -> usize {
    requested
        .and_then(|value| value.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(available)
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            backend: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            fingerprint_memo_capacity: DEFAULT_FINGERPRINT_MEMO_CAPACITY,
            workers: None,
            faults: None,
        }
    }
}

/// Memo key for a [`MatmulPlan`]: operand content + configuration + output-width bucket.
///
/// Output widths are bucketed to the next power of two so a serving stream with varying
/// batch widths reuses a handful of plans instead of one per width; the memoized plan's
/// `dims.1`/`estimated_macs` refer to the bucket width (execution always uses the actual
/// RHS width — the plan only pins backend choices and the tiling decision, neither of
/// which flips within a 2× width band in practice).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    fingerprint: u64,
    shape: (usize, usize),
    config: Option<TasdConfig>,
    n_cols_bucket: usize,
}

#[derive(Debug, Default)]
struct PlanMemo {
    entries: HashMap<PlanKey, Arc<MatmulPlan>>,
}

/// Fingerprints memoized per operand *allocation* (`Arc` pointer identity).
///
/// Soundness: each entry holds a strong `Arc<Matrix>` clone. While that clone lives, the
/// allocation cannot be mutated in place through safe code (`Arc::get_mut` fails with
/// strong count > 1, `Arc::make_mut` clones to a fresh allocation) and the address
/// cannot be freed and reused — so pointer identity implies content identity.
///
/// **Dead entries are swept, not hoarded**: an entry whose pin is the *sole* remaining
/// strong reference (`Arc::strong_count == 1`) can never be hit again — the allocation
/// stays alive at that address, so no future operand can alias its pointer key — it is
/// pure retained memory. Every insert drops such entries first, so transient operands
/// (e.g. a per-call serving snapshot that was immediately discarded) do not accumulate
/// up to `capacity` pinned matrices.
#[derive(Debug)]
struct FingerprintMemo {
    capacity: usize,
    clock: u64,
    entries: HashMap<usize, FingerprintEntry>,
}

#[derive(Debug)]
struct FingerprintEntry {
    /// Pins the operand: see the memo's soundness note.
    _pin: Arc<Matrix>,
    fingerprint: u64,
    last_used: u64,
}

impl FingerprintMemo {
    fn new(capacity: usize) -> Self {
        FingerprintMemo {
            capacity,
            clock: 0,
            entries: HashMap::new(),
        }
    }

    fn get(&mut self, key: usize) -> Option<u64> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|e| {
            e.last_used = clock;
            e.fingerprint
        })
    }

    fn insert(&mut self, key: usize, pin: Arc<Matrix>, fingerprint: u64) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        // Sweep dead entries (memo holds the only strong reference): their pointer keys
        // can never be looked up again, so they are waste whatever their recency. A
        // racy concurrent drop just defers an entry to the next insert's sweep.
        self.entries.retain(|_, e| Arc::strong_count(&e._pin) > 1);
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(lru) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&lru);
            }
        }
        self.entries.insert(
            key,
            FingerprintEntry {
                _pin: pin,
                fingerprint,
                last_used: self.clock,
            },
        );
    }
}

#[derive(Debug, Default)]
struct PrepCounters {
    prepares: AtomicU64,
    conversions: AtomicU64,
    plans_computed: AtomicU64,
    plan_hits: AtomicU64,
    fingerprint_scans: AtomicU64,
    fingerprint_hits: AtomicU64,
}

/// Point-in-time prepared-execution counters, from [`ExecutionEngine::prep_stats`].
///
/// These are the counters the prepare-once / execute-many contract is audited with: a
/// delta taken around a warm (cache-hit) call must show zero `conversions`, zero
/// `plans_computed`, and zero `fingerprint_scans`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepStats {
    /// Series prepared (decomposed + packed) — one per decomposition-cache miss.
    pub prepares: u64,
    /// Term format conversions performed at prepare time (terms kept in their stored
    /// structured format cost none).
    pub conversions: u64,
    /// Plans computed (plan-memo misses).
    pub plans_computed: u64,
    /// Plans served from the memo.
    pub plan_hits: u64,
    /// Full operand content scans performed to fingerprint.
    pub fingerprint_scans: u64,
    /// Fingerprints served from the per-allocation memo without a scan.
    pub fingerprint_hits: u64,
}

/// The output-width bucket a plan is memoized under (next power of two).
fn n_cols_bucket(n_cols: usize) -> usize {
    n_cols.next_power_of_two()
}

/// The unified execution engine: plans, prepares, caches, and executes TASD matmuls
/// through the [`GemmBackend`] trait. See the [module docs](self) for the overview, the
/// prepare-once / execute-many contract, and an example.
///
/// The engine is `Sync`: share one engine (e.g. behind an `Arc`) across threads; the
/// caches are internally locked, planning and execution take `&self`.
#[derive(Debug)]
pub struct ExecutionEngine {
    backend_override: Option<Arc<dyn GemmBackend>>,
    /// The kernels indexed by [`BackendKind`] discriminant order: dense, csr, nm.
    backends: [Arc<dyn GemmBackend>; 3],
    cache: Mutex<DecompositionCache>,
    plans: Mutex<PlanMemo>,
    fingerprints: Mutex<FingerprintMemo>,
    /// The engine's one worker pool: every parallel job (GEMM row tiles and band runs,
    /// from every concurrent caller) drains through this queue — nothing spawns per
    /// call.
    executor: executor::Executor,
    counters: PrepCounters,
    /// Armed fault-injection plan ([`EngineBuilder::fault_plan`]); `None` in production.
    faults: Option<Arc<FaultPlan>>,
}

impl ExecutionEngine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Trips the armed [`FaultPlan`] at `site`, if any. A triggered fault escalates to
    /// a panic here (transient errors included — a failpoint has no `Result` channel);
    /// the serving layer's isolation converts it into a per-request
    /// [`ServingError::KernelPanicked`], which is exactly the behavior the chaos suite
    /// exercises.
    // lint: hot-path
    pub(crate) fn failpoint(&self, site: FaultSite) {
        if let Some(plan) = &self.faults {
            if let Err(error) = plan.trip(site) {
                // lint: allow(panic): only reachable with a fault plan armed — firing
                // the injected fault is this site's entire purpose.
                panic!("injected transient fault: {error}");
            }
        }
    }

    /// The process-wide default engine (default builder settings), which the back-compat
    /// free functions [`crate::series_gemm`] / [`crate::series_gemm_into`] dispatch to.
    pub fn global() -> &'static ExecutionEngine {
        static GLOBAL: OnceLock<ExecutionEngine> = OnceLock::new();
        GLOBAL.get_or_init(|| ExecutionEngine::builder().build())
    }

    // ---- Planning -------------------------------------------------------------------

    /// Backend for a *prepared* structured term: the full measured table applies, because
    /// prepare-time packing materializes whatever format the table picks. A forced
    /// backend keeps terms structured (packing would fight the override).
    fn kind_for_packed(&self, density: f64, rows: usize, cols: usize) -> BackendKind {
        if self.backend_override.is_some() {
            return BackendKind::Nm;
        }
        BackendTable::MEASURED.choose(density, rows, cols)
    }

    /// Backend for an *unprepared* structured term (raw [`TasdSeries`] execution): stay
    /// on the stored format's native kernel unless the term crosses into dense —
    /// converting at execution time is exactly what prepared execution exists to avoid.
    fn kind_for_structured_raw(&self, density: f64, rows: usize, cols: usize) -> BackendKind {
        if BackendTable::MEASURED.is_dense_crossed(density, rows, cols) {
            BackendKind::Dense
        } else {
            BackendKind::Nm
        }
    }

    /// Backend for an undecomposed operand (dense storage): the entry-iteration kernel
    /// below the dense crossover, the blocked dense kernel above it.
    fn kind_for_unstructured(&self, density: f64, rows: usize, cols: usize) -> BackendKind {
        if BackendTable::MEASURED.is_dense_crossed(density, rows, cols) {
            BackendKind::Dense
        } else {
            BackendKind::Csr
        }
    }

    fn plan_terms(&self, dims: (usize, usize, usize), terms: Vec<TermPlan>) -> MatmulPlan {
        let parallel = self.executor.workers() > 1
            && dims.0 >= 2
            && terms.iter().map(|t| t.estimated_macs).sum::<u64>() >= MIN_TILED_MACS;
        MatmulPlan {
            dims,
            terms,
            parallel,
            backend_override: self.backend_override.as_ref().map(|b| b.name().to_string()),
        }
    }

    /// Plans the execution of `series · B` where `B` has `n_cols` columns: one backend
    /// assignment per materialized term, from each term's actual density. This is the
    /// *unprepared* path — terms stay on their stored format's kernel below the dense
    /// crossover. Prepared execution plans via [`plan_prepared`](Self::plan_prepared),
    /// which is memoized and uses the full [`BackendTable`].
    pub fn plan_series(&self, series: &TasdSeries, n_cols: usize) -> MatmulPlan {
        let (m, k) = series.shape();
        let terms = series
            .terms()
            .iter()
            .map(|term| {
                let density = GemmOperand::density(term);
                TermPlan {
                    backend: self.kind_for_structured_raw(density, m, k),
                    density,
                    estimated_macs: term.nnz() as u64 * n_cols as u64,
                }
            })
            .collect();
        self.plan_terms((m, n_cols, k), terms)
    }

    /// The memoized plan for executing `prepared · B` where `B` has `n_cols` columns.
    ///
    /// Plans are cached per `(fingerprint, configuration, output-width bucket)` (see
    /// [`PlanKey`] bucketing note): the first call for a bucket computes and stores the
    /// plan, subsequent calls return it without touching the operand. Term backends come
    /// from the prepared series itself — they were pinned at pack time.
    pub fn plan_prepared(&self, prepared: &PreparedSeries, n_cols: usize) -> Arc<MatmulPlan> {
        let bucket = n_cols_bucket(n_cols);
        let key = PlanKey {
            fingerprint: prepared.fingerprint(),
            shape: prepared.shape(),
            config: Some(prepared.series().config().clone()),
            n_cols_bucket: bucket,
        };
        self.memoized_plan(key, || {
            let (m, k) = prepared.shape();
            let terms = prepared
                .terms()
                .iter()
                .map(|t| TermPlan {
                    backend: t.backend(),
                    density: t.density(),
                    estimated_macs: t.nnz() as u64 * bucket as u64,
                })
                .collect();
            self.plan_terms((m, bucket, k), terms)
        })
    }

    /// Plans a plain (undecomposed) GEMM `A · B`.
    pub fn plan_gemm(&self, a: &Matrix, n_cols: usize) -> MatmulPlan {
        // One non-zero scan serves both the density decision and the MAC estimate.
        let nnz = a.count_nonzeros();
        let density = if a.is_empty() {
            0.0
        } else {
            nnz as f64 / a.len() as f64
        };
        let term = TermPlan {
            backend: self.kind_for_unstructured(density, a.rows(), a.cols()),
            density,
            estimated_macs: nnz as u64 * n_cols as u64,
        };
        self.plan_terms((a.rows(), n_cols, a.cols()), vec![term])
    }

    /// [`plan_gemm`](Self::plan_gemm) memoized by `(fingerprint, shape, no-config,
    /// output-width bucket)`: the non-zero scan runs once per operand content, not once
    /// per call. The serving batch path uses this for dense request groups.
    fn plan_gemm_memoized(&self, a: &Matrix, fingerprint: u64, n_cols: usize) -> Arc<MatmulPlan> {
        let bucket = n_cols_bucket(n_cols);
        let key = PlanKey {
            fingerprint,
            shape: a.shape(),
            config: None,
            n_cols_bucket: bucket,
        };
        self.memoized_plan(key, || self.plan_gemm(a, bucket))
    }

    fn memoized_plan(&self, key: PlanKey, compute: impl FnOnce() -> MatmulPlan) -> Arc<MatmulPlan> {
        if let Some(hit) = lock_or_panic(&self.plans, "plan memo").entries.get(&key) {
            self.counters.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        // Computed outside the lock; a racing thread computes the identical plan and one
        // copy wins the insert.
        let plan = Arc::new(compute());
        self.counters.plans_computed.fetch_add(1, Ordering::Relaxed);
        let mut memo = lock_or_panic(&self.plans, "plan memo");
        if memo.entries.len() >= PLAN_MEMO_CAPACITY {
            memo.entries.clear();
        }
        memo.entries.insert(key, Arc::clone(&plan));
        plan
    }

    /// Shape-only planning: what the engine would do for an `lhs_rows × lhs_cols` operand
    /// of the given density, multiplied into `out_cols` output columns, decomposed with
    /// `config` (or run undecomposed when `None`). No tensor is materialized — per-term
    /// densities are the configuration-capped estimates of
    /// [`MatmulPlan::estimate_term_densities`] — which is exactly what the accelerator
    /// model needs to cost a layer it never executes. Backend choices model *prepared*
    /// execution (the [`BackendTable`] applies in full), since that is how the engine
    /// actually runs decomposed operands.
    pub fn plan_dims(
        &self,
        lhs_rows: usize,
        lhs_cols: usize,
        out_cols: usize,
        density: f64,
        config: Option<&TasdConfig>,
    ) -> MatmulPlan {
        let elems = lhs_rows as u64 * lhs_cols as u64;
        let dims = (lhs_rows, out_cols, lhs_cols);
        let terms = match config {
            None => vec![TermPlan {
                backend: self.kind_for_unstructured(density, lhs_rows, lhs_cols),
                density: density.clamp(0.0, 1.0),
                estimated_macs: (elems as f64 * density.clamp(0.0, 1.0)) as u64 * out_cols as u64,
            }],
            Some(cfg) => MatmulPlan::estimate_term_densities(density, cfg)
                .into_iter()
                .map(|d| TermPlan {
                    backend: self.kind_for_packed(d, lhs_rows, lhs_cols),
                    density: d,
                    estimated_macs: (elems as f64 * d) as u64 * out_cols as u64,
                })
                .collect(),
        };
        self.plan_terms(dims, terms)
    }

    // lint: hot-path, allow(indexing): idx comes from the exhaustive BackendKind match,
    // and the table is built with exactly one slot per kind at engine construction
    fn backend_for_kind(&self, kind: BackendKind) -> &dyn GemmBackend {
        if let Some(forced) = &self.backend_override {
            return forced.as_ref();
        }
        let idx = match kind {
            BackendKind::Dense => 0,
            BackendKind::Csr => 1,
            BackendKind::Nm => 2,
        };
        self.backends[idx].as_ref()
    }

    // ---- Fingerprinting -------------------------------------------------------------

    /// The content fingerprint of `a`, served from the per-allocation memo when this
    /// `Arc` was seen before (a hit performs no scan; see the [module docs](self) for
    /// the pinning contract).
    pub fn fingerprint_of(&self, a: &Arc<Matrix>) -> u64 {
        let key = Arc::as_ptr(a) as usize;
        if let Some(fingerprint) = lock_or_panic(&self.fingerprints, "fingerprint memo").get(key) {
            self.counters
                .fingerprint_hits
                .fetch_add(1, Ordering::Relaxed);
            return fingerprint;
        }
        let fingerprint = self.scan_fingerprint(a);
        lock_or_panic(&self.fingerprints, "fingerprint memo").insert(
            key,
            Arc::clone(a),
            fingerprint,
        );
        fingerprint
    }

    /// A full content scan, counted in [`PrepStats::fingerprint_scans`].
    fn scan_fingerprint(&self, a: &Matrix) -> u64 {
        self.counters
            .fingerprint_scans
            .fetch_add(1, Ordering::Relaxed);
        a.fingerprint()
    }

    // ---- Preparing and caching ------------------------------------------------------

    /// Decomposes `a` under `config` and packs every term into its planned backend's
    /// native format, returning a cached prepared series when this (matrix,
    /// configuration) pair was prepared before. This is the entry point of the
    /// prepare-once / execute-many contract (see the [module docs](self)).
    ///
    /// The cache lock is not held during decomposition, so two threads racing on the same
    /// cold key may both decompose; the result is identical and one copy wins the insert.
    pub fn prepare(&self, a: &Matrix, config: &TasdConfig) -> Arc<PreparedSeries> {
        let fingerprint = self.scan_fingerprint(a);
        self.prepare_with_fingerprint(a, config, fingerprint).0
    }

    /// [`prepare`](Self::prepare) for an `Arc`-shared operand: the fingerprint comes from
    /// the per-allocation memo, so repeated calls against the same allocation never
    /// rescan it. This is the serving path's variant.
    pub fn prepare_shared(&self, a: &Arc<Matrix>, config: &TasdConfig) -> Arc<PreparedSeries> {
        let fingerprint = self.fingerprint_of(a);
        self.prepare_with_fingerprint(a, config, fingerprint).0
    }

    /// [`prepare`](Self::prepare) with a precomputed fingerprint of `a`, also reporting
    /// whether *this* call was served from the cache — read atomically with the lookup,
    /// so concurrent traffic on the engine cannot misattribute it.
    ///
    /// On a miss, two threads racing on the same cold key both decompose; the result is
    /// identical, the **first** insert wins, and the loser adopts the resident copy — so
    /// concurrent serving traffic converges on one shared allocation per key instead of
    /// churning the cache's byte accounting.
    pub(crate) fn prepare_with_fingerprint(
        &self,
        a: &Matrix,
        config: &TasdConfig,
        fingerprint: u64,
    ) -> (Arc<PreparedSeries>, bool) {
        let key = CacheKey {
            fingerprint,
            shape: a.shape(),
            config: config.clone(),
        };
        if let Some(hit) = lock_or_panic(&self.cache, "prepared cache").get(&key) {
            return (hit, true);
        }
        let prepared = Arc::new(self.decompose_packed(a, config, fingerprint, a.shape()));
        let prepared = lock_or_panic(&self.cache, "prepared cache").insert_or_get(key, prepared);
        (prepared, false)
    }

    /// Decomposes rows `r0..r1` of `a` as one band of a named operand, packing every
    /// term for the backend `a`'s whole shape selects (so a band of a large operand never
    /// lands in the small-shape bucket). Never cached: the band belongs to the
    /// generation that asked for it.
    pub(crate) fn prepare_band(
        &self,
        a: &Matrix,
        (r0, r1): (usize, usize),
        config: &TasdConfig,
        fingerprint: u64,
    ) -> Arc<PreparedSeries> {
        Arc::new(self.decompose_packed(&a.row_block(r0, r1), config, fingerprint, a.shape()))
    }

    /// The engine's one decomposition site: trips the [`FaultSite::Decompose`]
    /// failpoint, decomposes `a`, packs each term for the backend the table picks for
    /// its density at `shape`, and counts the prepare and its conversions.
    fn decompose_packed(
        &self,
        a: &Matrix,
        config: &TasdConfig,
        fingerprint: u64,
        (rows, cols): (usize, usize),
    ) -> PreparedSeries {
        self.failpoint(FaultSite::Decompose);
        let series = Arc::new(decompose(a, config));
        let prepared = PreparedSeries::prepare(series, fingerprint, |d, _, _| {
            self.kind_for_packed(d, rows, cols)
        });
        self.counters.prepares.fetch_add(1, Ordering::Relaxed);
        self.counters
            .conversions
            .fetch_add(prepared.conversions(), Ordering::Relaxed);
        prepared
    }

    /// Decomposes `a` under `config`, returning a cached series when this (matrix,
    /// configuration) pair was decomposed before. The series comes from the same
    /// prepared cache entry [`prepare`](Self::prepare) fills — callers that execute
    /// repeatedly should hold the [`PreparedSeries`] instead.
    ///
    /// Packing happens here too, by design: the cache's invariant is that **every**
    /// resident entry is execution-ready, so a later hit on this key — from `submit`, a
    /// serving snapshot, or anyone — performs zero conversions. Reconstruct-only
    /// callers (optimizer sweeps, analysis) thus pay an `O(nnz)` packing they may never
    /// execute; that cost is deliberate (it is what warms serving caches from optimizer
    /// runs), bounded by `cache_capacity`, and visible per entry as
    /// [`CacheEntryStats::packed_bytes`] — the sizing recipe in the [module docs](self)
    /// treats cold packed entries as reclaimable.
    pub fn decompose(&self, a: &Matrix, config: &TasdConfig) -> Arc<TasdSeries> {
        Arc::clone(self.prepare(a, config).series())
    }

    /// Point-in-time decomposition-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        lock_or_panic(&self.cache, "prepared cache").stats()
    }

    /// Point-in-time prepared-execution counters (see [`PrepStats`]).
    pub fn prep_stats(&self) -> PrepStats {
        PrepStats {
            prepares: self.counters.prepares.load(Ordering::Relaxed),
            conversions: self.counters.conversions.load(Ordering::Relaxed),
            plans_computed: self.counters.plans_computed.load(Ordering::Relaxed),
            plan_hits: self.counters.plan_hits.load(Ordering::Relaxed),
            fingerprint_scans: self.counters.fingerprint_scans.load(Ordering::Relaxed),
            fingerprint_hits: self.counters.fingerprint_hits.load(Ordering::Relaxed),
        }
    }

    /// Per-entry decomposition-cache counters, hottest first (see the [module
    /// docs](self) for the capacity-sizing recipe built on these).
    pub fn cache_entry_stats(&self) -> Vec<CacheEntryStats> {
        lock_or_panic(&self.cache, "prepared cache").entry_stats()
    }

    /// The executor worker count, captured once at build time (see
    /// [`EngineBuilder::workers`]): the number of threads every parallel job in this
    /// engine shares, however many callers are in flight.
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// Resident executor pool threads spawned so far: 0 until the first parallel job,
    /// then exactly `workers() − 1` forever (callers act as the last worker while they
    /// wait). The serving test suite pins this to prove nothing spawns per call.
    pub fn pool_threads(&self) -> usize {
        self.executor.pool_threads()
    }

    /// Drops every cached prepared decomposition, memoized plan, and memoized operand
    /// fingerprint (counters are preserved). A [`WeightStore`]'s bands are not cached
    /// and stay untouched.
    pub fn clear_cache(&self) {
        lock_or_panic(&self.cache, "prepared cache").clear();
        lock_or_panic(&self.plans, "plan memo").entries.clear();
        lock_or_panic(&self.fingerprints, "fingerprint memo")
            .entries
            .clear();
    }

    // ---- Execution ------------------------------------------------------------------

    fn check_shapes(shape: (usize, usize), b: &Matrix, c: &Matrix) -> Result<()> {
        if shape.1 != b.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "gemm",
                lhs: shape,
                rhs: b.shape(),
            });
        }
        if c.rows() != shape.0 || c.cols() != b.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "gemm accumulator",
                lhs: (shape.0, b.cols()),
                rhs: c.shape(),
            });
        }
        Ok(())
    }

    /// Executes `C += Σₜ Aₜ·B` over the `(backend, operand)` terms `terms` yields, each
    /// operand `shape`-shaped: the one execution body of the prepared, raw-series, and
    /// dense paths. Untiled, every term enters its kernel whole through `gemm_into`. A
    /// `tiled` plan instead gives each executor worker one contiguous block of output
    /// rows and runs every term of that block through `gemm_rows_into`, as
    /// [`gemm_bands_into`](Self::gemm_bands_into) does for runs of bands. Each output row
    /// accumulates the same terms in the same order either way, so tiling never changes
    /// a bit.
    // lint: hot-path, warm-path
    fn gemm_terms_into<'t, I>(
        &self,
        tiled: bool,
        shape: (usize, usize),
        terms: impl Fn() -> I + Sync,
        b: &Matrix,
        c: &mut Matrix,
    ) -> Result<()>
    where
        I: Iterator<Item = (&'t dyn GemmBackend, &'t dyn GemmOperand)>,
    {
        Self::check_shapes(shape, b, c)?;
        let (m, n_cols) = (shape.0, b.cols());
        let tiles = if tiled {
            self.executor.workers().min(m)
        } else {
            1
        };
        if tiles < 2 || n_cols == 0 {
            for (backend, operand) in terms() {
                backend.gemm_into(operand, b, c)?;
            }
            return Ok(());
        }
        let tile = |r0: usize, slab: &mut [f32]| {
            for (backend, operand) in terms() {
                backend.gemm_rows_into(operand, b, r0, r0 + slab.len() / n_cols, slab, n_cols);
            }
        };
        self.run_row_slabs(c, m.div_ceil(tiles), &tile);
        Ok(())
    }

    /// Executes `C += A·B` for a `shape`-shaped operand prepared as `bands` (band `i`
    /// holding rows `i·BAND_ROWS..`): every band's terms run through their packed
    /// backends' `gemm_rows_into` into the band's rows of `C`. Under the same rule as a
    /// whole operand's plan (`MIN_TILED_MACS` estimated MACs and more than one worker)
    /// each executor worker takes one contiguous run of bands; otherwise the bands run
    /// in order on the calling thread. Bitwise identical to executing the whole
    /// operand's prepared series (see the "Bands" section of the [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    // lint: hot-path, warm-path
    pub(crate) fn gemm_bands_into(
        &self,
        shape: (usize, usize),
        bands: &[Arc<PreparedSeries>],
        b: &Matrix,
        c: &mut Matrix,
    ) -> Result<()> {
        Self::check_shapes(shape, b, c)?;
        let n_cols = b.cols();
        if n_cols == 0 {
            return Ok(());
        }
        let nnz: u64 = bands.iter().map(|band| band.nnz() as u64).sum();
        let workers = self.executor.workers();
        let runs = if workers > 1 && nnz * n_cols_bucket(n_cols) as u64 >= MIN_TILED_MACS {
            workers.min(bands.len())
        } else {
            1
        };
        let run = |r0: usize, slab: &mut [f32]| {
            let band_slabs = slab.chunks_mut(BAND_ROWS * n_cols);
            for (band, band_slab) in bands.iter().skip(r0 / BAND_ROWS).zip(band_slabs) {
                self.run_band(band, b, band_slab, n_cols);
            }
        };
        if runs < 2 {
            run(0, c.rows_slice_mut(0, shape.0));
        } else {
            self.run_row_slabs(c, bands.len().div_ceil(runs) * BAND_ROWS, &run);
        }
        Ok(())
    }

    /// Runs one band's terms through their packed backends into the band's output slab.
    // lint: hot-path, warm-path
    fn run_band(&self, band: &PreparedSeries, b: &Matrix, slab: &mut [f32], n_cols: usize) {
        let rows = slab.len() / n_cols;
        for (i, term) in band.terms().iter().enumerate() {
            self.backend_for_kind(term.backend()).gemm_rows_into(
                band.operand(i),
                b,
                0,
                rows,
                slab,
                n_cols,
            );
        }
    }

    /// Runs `job(r0, slab)` over `c`'s rows in consecutive slabs of `slab_rows` rows (the
    /// last ragged), one [`run_all`](executor::Executor::run_all) job per slab.
    // lint: hot-path, warm-path
    fn run_row_slabs(
        &self,
        c: &mut Matrix,
        slab_rows: usize,
        job: &(dyn Fn(usize, &mut [f32]) + Sync),
    ) {
        let (m, n_cols) = c.shape();
        // lint: allow(alloc): the job list of a parallel matmul; with one boxed job per
        // slab below, it is all a tiled call allocates — per-kernel threading paid a
        // chunk vector and a thread spawn per block on every call instead
        let mut jobs: Vec<Job> = Vec::with_capacity(m.div_ceil(slab_rows));
        for (i, slab) in c
            .rows_slice_mut(0, m)
            .chunks_mut(slab_rows * n_cols)
            .enumerate()
        {
            // lint: allow(alloc): one boxed job per slab (see the job list above)
            jobs.push(Box::new(move || job(i * slab_rows, slab)));
        }
        self.executor.run_all(jobs);
    }

    /// Executes `C += Σᵢ Aᵢ·B` term by term through the planned backends, from the raw
    /// (unprepared) series. Terms run on their stored format's kernel — this is the
    /// reference path prepared execution is verified bitwise against; hot paths should
    /// go through [`series_gemm_prepared_into`](Self::series_gemm_prepared_into).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    pub fn series_gemm_into(&self, series: &TasdSeries, b: &Matrix, c: &mut Matrix) -> Result<()> {
        let plan = self.plan_series(series, b.cols());
        let terms = || {
            let kinds = plan.terms.iter().map(|t| self.backend_for_kind(t.backend));
            kinds.zip(series.terms().iter().map(|t| t as &dyn GemmOperand))
        };
        self.gemm_terms_into(plan.parallel, series.shape(), terms, b, c)
    }

    /// Executes `C = Σᵢ Aᵢ·B` from the raw series (see
    /// [`series_gemm_into`](Self::series_gemm_into)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    pub fn series_gemm(&self, series: &TasdSeries, b: &Matrix) -> Result<Matrix> {
        let mut c = Matrix::zeros(series.shape().0, b.cols());
        self.series_gemm_into(series, b, &mut c)?;
        Ok(c)
    }

    /// Executes `C += Σᵢ Aᵢ·B` from a prepared series: every term is already in its
    /// planned backend's native format and the plan comes from the memo, so the hot loop
    /// performs no conversion, no replanning, and no operand scan. Results are bitwise
    /// identical to [`series_gemm_into`](Self::series_gemm_into) on the underlying
    /// series.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    // lint: hot-path, warm-path
    pub fn series_gemm_prepared_into(
        &self,
        prepared: &PreparedSeries,
        b: &Matrix,
        c: &mut Matrix,
    ) -> Result<()> {
        let plan = self.plan_prepared(prepared, b.cols());
        let terms = || {
            let kinds = prepared
                .terms()
                .iter()
                .map(|t| self.backend_for_kind(t.backend()));
            kinds
                .enumerate()
                .map(|(i, backend)| (backend, prepared.operand(i)))
        };
        self.gemm_terms_into(plan.parallel, prepared.shape(), terms, b, c)
    }

    /// Executes `C = Σᵢ Aᵢ·B` from a prepared series (see
    /// [`series_gemm_prepared_into`](Self::series_gemm_prepared_into)).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    pub fn series_gemm_prepared(&self, prepared: &PreparedSeries, b: &Matrix) -> Result<Matrix> {
        let mut c = Matrix::zeros(prepared.shape().0, b.cols());
        self.series_gemm_prepared_into(prepared, b, &mut c)?;
        Ok(c)
    }

    /// Decomposes `a` under `config` (through the prepared cache) and executes the
    /// approximated product `C ≈ A·B` in one call — the end-to-end serving path. On a
    /// cache hit this performs zero decompositions, zero format conversions, and zero
    /// replans (the operand content scan for the cache key still runs; hold an
    /// `Arc<Matrix>` and use [`submit`](Self::submit) or
    /// [`prepare_shared`](Self::prepare_shared) to amortize that too).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    pub fn decompose_gemm(&self, a: &Matrix, config: &TasdConfig, b: &Matrix) -> Result<Matrix> {
        let fingerprint = self.scan_fingerprint(a);
        let (prepared, _) = self.prepare_with_fingerprint(a, config, fingerprint);
        self.series_gemm_prepared(&prepared, b)
    }

    /// Executes an exact (undecomposed) GEMM `C += A·B` through the planned backend —
    /// the path dense layers take.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    pub fn gemm_into(&self, a: &Matrix, b: &Matrix, c: &mut Matrix) -> Result<()> {
        self.gemm_into_with_plan(a, b, c, &self.plan_gemm(a, b.cols()))
    }

    /// [`gemm_into`](Self::gemm_into) with a caller-supplied plan (the batch path reuses
    /// memoized plans here instead of rescanning the operand).
    // lint: hot-path, warm-path, allow(indexing): every MatmulPlan carries at least one
    // term by construction (plan_terms rejects empty series)
    pub(crate) fn gemm_into_with_plan(
        &self,
        a: &Matrix,
        b: &Matrix,
        c: &mut Matrix,
        plan: &MatmulPlan,
    ) -> Result<()> {
        let backend = self.backend_for_kind(plan.terms[0].backend);
        let terms = || std::iter::once((backend, a as &dyn GemmOperand));
        self.gemm_terms_into(plan.parallel, a.shape(), terms, b, c)
    }

    /// Executes an exact GEMM `C = A·B` through the planned backend.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    pub fn gemm(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        self.gemm_into(a, b, &mut c)?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_tensor::{gemm, MatrixGenerator};

    fn engine() -> ExecutionEngine {
        ExecutionEngine::builder().build()
    }

    #[test]
    fn engine_series_gemm_matches_reference_reconstruction() {
        let mut gen = MatrixGenerator::seeded(1);
        let e = engine();
        for sparsity in [0.0, 0.5, 0.9] {
            let a = gen.sparse_normal(40, 48, sparsity);
            let b = gen.normal(48, 24, 0.0, 1.0);
            let series = e.decompose(&a, &TasdConfig::parse("4:8+2:8").unwrap());
            let via_engine = e.series_gemm(&series, &b).unwrap();
            let via_reference = gemm(&series.reconstruct(), &b).unwrap();
            assert!(
                via_engine.approx_eq(&via_reference, 1e-3),
                "sparsity {sparsity}"
            );
        }
    }

    #[test]
    fn prepared_gemm_is_bitwise_identical_to_raw_series_gemm() {
        let mut gen = MatrixGenerator::seeded(41);
        let e = engine();
        for sparsity in [0.0, 0.5, 0.9, 0.97] {
            let a = gen.sparse_normal(130, 140, sparsity);
            let b = gen.normal(140, 24, 0.0, 1.0);
            let cfg = TasdConfig::parse("2:8+1:8").unwrap();
            let prepared = e.prepare(&a, &cfg);
            let via_prepared = e.series_gemm_prepared(&prepared, &b).unwrap();
            let via_raw = e.series_gemm(prepared.series(), &b).unwrap();
            // Packing preserves per-row accumulation order: exact equality, not approx.
            assert_eq!(via_prepared, via_raw, "sparsity {sparsity}");
        }
    }

    #[test]
    fn engine_gemm_matches_reference() {
        let mut gen = MatrixGenerator::seeded(2);
        let e = engine();
        for sparsity in [0.0, 0.8] {
            let a = gen.sparse_normal(30, 20, sparsity);
            let b = gen.normal(20, 10, 0.0, 1.0);
            assert!(e
                .gemm(&a, &b)
                .unwrap()
                .approx_eq(&gemm(&a, &b).unwrap(), 1e-4));
        }
    }

    #[test]
    fn decompose_hits_cache_on_repeat() {
        let mut gen = MatrixGenerator::seeded(3);
        let e = engine();
        let a = gen.sparse_normal(32, 32, 0.7);
        let cfg = TasdConfig::parse("2:8").unwrap();
        let first = e.decompose(&a, &cfg);
        let second = e.decompose(&a, &cfg);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second request must be served from cache"
        );
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        // A different config is a different key.
        let _ = e.decompose(&a, &TasdConfig::parse("1:8").unwrap());
        assert_eq!(e.cache_stats().misses, 2);
    }

    #[test]
    fn cache_hit_performs_no_conversions_and_no_replans() {
        let mut gen = MatrixGenerator::seeded(43);
        let e = engine();
        // Large + sparse so the table packs terms into CSR (conversions > 0 cold).
        let a = Arc::new(gen.sparse_normal(256, 256, 0.9));
        let b = gen.normal(256, 16, 0.0, 1.0);
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        let prepared = e.prepare_shared(&a, &cfg);
        let _ = e.series_gemm_prepared(&prepared, &b).unwrap();
        let cold = e.prep_stats();
        assert_eq!(cold.prepares, 1);
        assert!(cold.conversions > 0, "sparse terms must pack into CSR");
        assert_eq!(cold.fingerprint_scans, 1);
        assert_eq!(cold.plans_computed, 1);
        // Warm: same Arc, same config, same width — zero scans/conversions/replans.
        let again = e.prepare_shared(&a, &cfg);
        let _ = e.series_gemm_prepared(&again, &b).unwrap();
        let warm = e.prep_stats();
        assert_eq!(warm.prepares, cold.prepares);
        assert_eq!(warm.conversions, cold.conversions);
        assert_eq!(warm.plans_computed, cold.plans_computed);
        assert_eq!(warm.fingerprint_scans, cold.fingerprint_scans);
        assert!(warm.fingerprint_hits > cold.fingerprint_hits);
        assert!(warm.plan_hits > cold.plan_hits);
    }

    #[test]
    fn plan_memo_buckets_output_widths() {
        let mut gen = MatrixGenerator::seeded(44);
        let e = engine();
        let a = gen.sparse_normal(64, 64, 0.8);
        let cfg = TasdConfig::parse("2:8").unwrap();
        let prepared = e.prepare(&a, &cfg);
        let p1 = e.plan_prepared(&prepared, 5);
        let p2 = e.plan_prepared(&prepared, 8); // same bucket: 8
        let p3 = e.plan_prepared(&prepared, 9); // bucket 16
        assert!(Arc::ptr_eq(&p1, &p2), "widths 5 and 8 share the 8-bucket");
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(e.prep_stats().plans_computed, 2);
    }

    #[test]
    fn planning_follows_density() {
        let mut gen = MatrixGenerator::seeded(4);
        let e = engine();
        // A dense matrix: the single undecomposed term plans onto the dense kernel.
        let dense = gen.normal(16, 16, 0.0, 1.0);
        assert_eq!(e.plan_gemm(&dense, 8).terms[0].backend, BackendKind::Dense);
        // A very sparse matrix plans onto the CSR kernel.
        let sparse = gen.sparse_normal(16, 16, 0.95);
        assert_eq!(e.plan_gemm(&sparse, 8).terms[0].backend, BackendKind::Csr);
        // Raw series terms of a sparse matrix plan onto their stored N:M kernel.
        let series = e.decompose(&sparse, &TasdConfig::parse("2:8").unwrap());
        let plan = e.plan_series(&series, 8);
        assert!(plan.terms.iter().all(|t| t.backend == BackendKind::Nm));
    }

    #[test]
    fn prepared_terms_follow_the_backend_table() {
        let mut gen = MatrixGenerator::seeded(45);
        let e = engine();
        // Large sparse operand: terms land below the 0.30 density edge → CSR packing.
        let sparse = gen.sparse_normal(256, 256, 0.9);
        let prepared = e.prepare(&sparse, &TasdConfig::parse("2:8").unwrap());
        assert!(prepared
            .terms()
            .iter()
            .all(|t| t.backend() == BackendKind::Csr));
        assert!(prepared.packed_bytes() > 0);
        // Small operand: stays structured (conversion never amortizes).
        let small = gen.sparse_normal(16, 16, 0.9);
        let prepared = e.prepare(&small, &TasdConfig::parse("2:8").unwrap());
        assert!(prepared
            .terms()
            .iter()
            .all(|t| t.backend() == BackendKind::Nm));
        assert_eq!(prepared.packed_bytes(), 0);
    }

    #[test]
    fn parallel_flag_requires_enough_work() {
        let e = ExecutionEngine::builder().workers(2).build();
        let small = e.plan_dims(8, 8, 8, 1.0, None);
        assert!(!small.parallel);
        let big = e.plan_dims(1024, 1024, 1024, 1.0, None);
        assert!(big.parallel);
        assert!(
            !e.plan_dims(1, 1 << 20, 1024, 1.0, None).parallel,
            "one row cannot tile"
        );
        let sequential = ExecutionEngine::builder().workers(1).build();
        assert!(!sequential.plan_dims(1024, 1024, 1024, 1.0, None).parallel);
    }

    /// The tiling helper against its own untiled branch, bit for bit. Called directly,
    /// so shapes far below the tiling threshold still take the tiled branch.
    #[test]
    fn row_tiles_are_bitwise_identical_to_the_untiled_path() {
        use tasd_tensor::backend::CsrBackend;
        use tasd_tensor::CsrMatrix;
        let mut gen = MatrixGenerator::seeded(49);
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        for workers in [2, 3, 4, 8] {
            let forced: Arc<dyn GemmBackend> = Arc::new(CsrBackend::default());
            let engines = [
                ExecutionEngine::builder().workers(workers).build(),
                ExecutionEngine::builder()
                    .workers(workers)
                    .backend(forced)
                    .build(),
            ];
            for e in &engines {
                // Ragged row counts, m < workers, m = 1, and n ∈ {0, 1}.
                for (m, n) in [(1, 7), (2, 5), (3, 1), (13, 0), (13, 1), (37, 9), (64, 16)] {
                    let a = gen.sparse_normal(m, 24, 0.6);
                    let csr = CsrMatrix::from_dense(&a);
                    let series = decompose(&a, &cfg);
                    let b = gen.normal(24, n, 0.0, 1.0);
                    for kind in [BackendKind::Dense, BackendKind::Csr, BackendKind::Nm] {
                        let backend = e.backend_for_kind(kind);
                        // Every operand format through this kernel, then a two-term
                        // series: each row accumulates four terms in order.
                        let formats: [&dyn GemmOperand; 2] = [&a, &csr];
                        let terms = || {
                            let series_terms = series.terms().iter().map(|t| t as &dyn GemmOperand);
                            formats
                                .into_iter()
                                .chain(series_terms)
                                .map(|t| (backend, t))
                        };
                        // A non-zero start checks accumulation, not overwrite.
                        let start = gen.normal(m, n, 0.0, 1.0);
                        let mut untiled = start.clone();
                        e.gemm_terms_into(false, (m, 24), terms, &b, &mut untiled)
                            .unwrap();
                        let mut tiled = start;
                        e.gemm_terms_into(true, (m, 24), terms, &b, &mut tiled)
                            .unwrap();
                        assert_eq!(
                            tiled,
                            untiled,
                            "{workers} workers, {m}x{n}, {kind:?} slot, {} kernel",
                            backend.name()
                        );
                    }
                }
                assert_eq!(e.pool_threads(), workers - 1, "one pool, spawned once");
            }
        }
    }

    #[test]
    fn plan_dims_respects_config() {
        let e = engine();
        let cfg = TasdConfig::parse("4:8+1:8").unwrap();
        let plan = e.plan_dims(256, 512, 128, 1.0, Some(&cfg));
        assert_eq!(plan.num_terms(), 2);
        // Dense operand saturates both terms: 0.5 + 0.125 of dense MACs.
        let expected = (plan.dense_macs() as f64 * 0.625) as u64;
        assert!((plan.estimated_macs() as i64 - expected as i64).abs() < 1000);
        // The measured table: the 0.5-density term stays structured, the 0.125-density
        // residual term crosses to the faster CSR kernel (large operand, d < 0.30).
        assert_eq!(plan.terms[0].backend, BackendKind::Nm);
        assert_eq!(plan.terms[1].backend, BackendKind::Csr);
    }

    #[test]
    fn forced_backend_is_used_for_everything() {
        use tasd_tensor::backend::CsrBackend;
        let e = ExecutionEngine::builder()
            .backend(Arc::new(CsrBackend::default()))
            .build();
        let mut gen = MatrixGenerator::seeded(5);
        let a = gen.normal(24, 24, 0.0, 1.0);
        let b = gen.normal(24, 8, 0.0, 1.0);
        let plan = e.plan_gemm(&a, 8);
        assert_eq!(plan.backend_override.as_deref(), Some("csr"));
        assert_eq!(plan.summary(), "csr");
        // Still numerically correct.
        assert!(e
            .gemm(&a, &b)
            .unwrap()
            .approx_eq(&gemm(&a, &b).unwrap(), 1e-4));
        // Prepared series keep terms structured under an override (no packing).
        let prepared = e.prepare(&a, &TasdConfig::parse("2:8").unwrap());
        assert_eq!(prepared.packed_bytes(), 0);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let e = engine();
        let a = Matrix::zeros(4, 8);
        let prepared = e.prepare(&a, &TasdConfig::parse("2:4").unwrap());
        assert!(e
            .series_gemm(prepared.series(), &Matrix::zeros(4, 4))
            .is_err());
        assert!(e
            .series_gemm_prepared(&prepared, &Matrix::zeros(4, 4))
            .is_err());
        let b = Matrix::zeros(8, 4);
        let mut bad = Matrix::zeros(3, 4);
        assert!(e.series_gemm_into(prepared.series(), &b, &mut bad).is_err());
        assert!(e
            .series_gemm_prepared_into(&prepared, &b, &mut bad)
            .is_err());
        assert!(e.gemm(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2)).is_err());
    }

    #[test]
    fn decompose_gemm_end_to_end() {
        let mut gen = MatrixGenerator::seeded(6);
        let e = engine();
        let a = gen.sparse_normal(48, 64, 0.9);
        let b = gen.normal(64, 16, 0.0, 1.0);
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        let c = e.decompose_gemm(&a, &cfg, &b).unwrap();
        let series = e.decompose(&a, &cfg); // cache hit
        assert!(c.approx_eq(&gemm(&series.reconstruct(), &b).unwrap(), 1e-3));
        assert!(e.cache_stats().hits >= 1);
    }

    #[test]
    fn fingerprint_memo_is_pointer_keyed_and_bounded() {
        let mut gen = MatrixGenerator::seeded(46);
        let e = ExecutionEngine::builder()
            .fingerprint_memo_capacity(2)
            .build();
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let fp1 = e.fingerprint_of(&a);
        let fp2 = e.fingerprint_of(&a);
        assert_eq!(fp1, fp2);
        let stats = e.prep_stats();
        assert_eq!(stats.fingerprint_scans, 1);
        assert_eq!(stats.fingerprint_hits, 1);
        // Equal content behind a different allocation still fingerprints equal (it is a
        // content hash), via a fresh scan.
        let clone = Arc::new(a.as_ref().clone());
        assert_eq!(e.fingerprint_of(&clone), fp1);
        assert_eq!(e.prep_stats().fingerprint_scans, 2);
        // Capacity bounds the memo: two more distinct operands evict `a`.
        let b = Arc::new(gen.sparse_normal(8, 8, 0.0));
        let c = Arc::new(gen.sparse_normal(8, 8, 0.0));
        let _ = e.fingerprint_of(&b);
        let _ = e.fingerprint_of(&c);
        let scans_before = e.prep_stats().fingerprint_scans;
        let _ = e.fingerprint_of(&a);
        assert_eq!(e.prep_stats().fingerprint_scans, scans_before + 1);
    }

    #[test]
    fn dead_memo_entries_are_swept_instead_of_displacing_live_ones() {
        // Regression: a stream of transient operands (per-call serving snapshots,
        // immediately dropped) must neither accumulate pinned memory nor evict live
        // entries. With the sweep, a capacity-2 memo holding one live entry survives
        // many dead inserts; without it, the second transient would displace `a`.
        let mut gen = MatrixGenerator::seeded(48);
        let e = ExecutionEngine::builder()
            .fingerprint_memo_capacity(2)
            .build();
        let a = Arc::new(gen.sparse_normal(16, 16, 0.5));
        let _ = e.fingerprint_of(&a);
        for _ in 0..8 {
            let transient = Arc::new(gen.sparse_normal(16, 16, 0.5));
            let _ = e.fingerprint_of(&transient);
            // `transient` drops here; the memo's pin is now the sole owner.
        }
        let scans_before = e.prep_stats().fingerprint_scans;
        let _ = e.fingerprint_of(&a);
        assert_eq!(
            e.prep_stats().fingerprint_scans,
            scans_before,
            "live entry must have survived the transient stream"
        );
    }

    #[test]
    fn clear_cache_drops_plans_and_fingerprints_too() {
        let mut gen = MatrixGenerator::seeded(47);
        let e = engine();
        let a = Arc::new(gen.sparse_normal(64, 64, 0.8));
        let cfg = TasdConfig::parse("2:8").unwrap();
        let prepared = e.prepare_shared(&a, &cfg);
        let _ = e.plan_prepared(&prepared, 8);
        e.clear_cache();
        let before = e.prep_stats();
        let prepared = e.prepare_shared(&a, &cfg);
        let _ = e.plan_prepared(&prepared, 8);
        let after = e.prep_stats();
        assert_eq!(after.prepares, before.prepares + 1, "cache was cleared");
        assert_eq!(after.plans_computed, before.plans_computed + 1);
        assert_eq!(after.fingerprint_scans, before.fingerprint_scans + 1);
    }

    #[test]
    fn worker_count_is_captured_once_at_build() {
        let pinned = ExecutionEngine::builder().workers(3).build();
        assert_eq!(pinned.workers(), 3);
        assert_eq!(pinned.pool_threads(), 0, "the pool is lazy");
        // Zero is clamped: an engine always has at least the caller as a worker.
        assert_eq!(ExecutionEngine::builder().workers(0).build().workers(), 1);
        // The default comes from the environment exactly once, at build time.
        let default = ExecutionEngine::builder().build();
        assert!(default.workers() >= 1);
    }

    #[test]
    fn default_workers_resolve_tasd_workers_against_available_parallelism() {
        assert_eq!(resolve_workers(None, 2), 2, "unset");
        assert_eq!(resolve_workers(Some(""), 2), 2, "empty");
        assert_eq!(resolve_workers(Some("four"), 2), 2, "non-numeric");
        assert_eq!(resolve_workers(Some("0"), 2), 2, "zero");
        assert_eq!(resolve_workers(Some("4"), 2), 4);
    }

    #[test]
    fn global_engine_is_shared() {
        let a = ExecutionEngine::global();
        let b = ExecutionEngine::global();
        assert!(std::ptr::eq(a, b));
    }
}
