//! Row-sharded execution: split one huge operand into row shards, prepare each shard as
//! its own TASD series, and execute the shards on a worker pool into disjoint row ranges
//! of one shared output.
//!
//! Row sharding is exact by construction, twice over:
//!
//! * **Decomposition is row-local.** An N:M pattern constrains `M`-element blocks *along
//!   each row*, and the greedy extraction keeps the top-`N` magnitudes per block of the
//!   running residual — no information ever crosses a row boundary. Decomposing a row
//!   shard therefore yields exactly the corresponding rows of the whole-matrix
//!   decomposition, term for term and entry for entry.
//! * **Execution is row-local.** Every [`GemmBackend`](tasd_tensor::GemmBackend) exposes
//!   the row-range kernel `gemm_rows_into`, and each output row accumulates its stored
//!   entries in the same ascending-column order whether the kernel sees the whole operand
//!   or only its shard.
//!
//! Together these make sharded execution **bitwise identical** to unsharded execution —
//! the property `tests/sharding.rs` locks down across backends, sparsities, and shard
//! counts — while buying two serving-scale wins:
//!
//! 1. **Shard-level parallelism**: shards run as jobs on the engine's executor, each
//!    writing its own disjoint slab of the output (no synchronization beyond the final
//!    join).
//! 2. **Shard-local planning**: each shard is planned from *its own* density. A dense
//!    band of rows inside a globally-sparse matrix plans (and packs) dense, while the
//!    sparse remainder stays on a sparse kernel — a strictly finer-grained use of the
//!    measured [`BackendTable`](super::BackendTable) than one whole-matrix choice.
//!
//! Shards flow through the same prepare-once / execute-many machinery as whole matrices:
//! each shard's [`PreparedSeries`] lives in the engine's [`DecompositionCache`]
//! (super::DecompositionCache) under the *shard's* content fingerprint, so shards are
//! reusable across requests and batches, and a warm sharded
//! [`submit`](super::ExecutionEngine::submit) performs zero conversions, zero replans,
//! and zero operand rescans — with one cache hit per shard.

use super::cache::CacheKey;
use super::executor::Job;
use super::prepared::PreparedSeries;
use super::sync::lock_or_panic;
use super::ExecutionEngine;
use crate::config::TasdConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tasd_tensor::{Matrix, Result, TensorError};

/// Default row count below which operands are not worth sharding (see
/// [`EngineBuilder::shard_min_rows`](super::EngineBuilder::shard_min_rows)).
pub const DEFAULT_SHARD_MIN_ROWS: usize = 256;

/// Shard-split memos retained before the memo is cleared wholesale (splits are cheap to
/// recompute; the memo exists to skip per-call shard extraction and fingerprint scans).
const SHARD_SPLIT_MEMO_CAPACITY: usize = 256;

/// How an operand's rows are divided into shards.
///
/// Every policy produces contiguous, disjoint row ranges covering the operand exactly,
/// each at least one row (policies asking for more shards than rows are clamped).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShardPolicy {
    /// At most this many rows per shard (the last shard takes the ragged remainder).
    /// A value of 0 is treated as 1.
    FixedRows(usize),
    /// Split into this many equal-row shards (ragged by at most one row).
    TargetShards(usize),
    /// Split into this many shards balancing *stored non-zeros* per shard instead of
    /// rows, so a skewed sparsity profile does not leave one worker with all the work.
    /// Falls back to the equal-row split when the operand holds no non-zeros.
    NnzBalanced(usize),
}

impl ShardPolicy {
    /// The row ranges this policy divides `a` into: contiguous, disjoint, covering
    /// `0..a.rows()` exactly, each non-empty. An operand with zero rows yields no shards.
    pub fn split(&self, a: &Matrix) -> Vec<(usize, usize)> {
        let rows = a.rows();
        if rows == 0 {
            return Vec::new();
        }
        match *self {
            ShardPolicy::FixedRows(r) => {
                let r = r.max(1);
                (0..rows)
                    .step_by(r)
                    .map(|r0| (r0, (r0 + r).min(rows)))
                    .collect()
            }
            ShardPolicy::TargetShards(n) => even_split(rows, n),
            ShardPolicy::NnzBalanced(n) => {
                let n = n.clamp(1, rows);
                let row_nnz = a.row_nnz_counts();
                let total: usize = row_nnz.iter().sum();
                if total == 0 {
                    return even_split(rows, n);
                }
                // Greedy prefix walk: close shard s once its cumulative nnz reaches
                // s+1 n-ths of the total, or as late as still leaves one row for each
                // remaining shard.
                let mut ranges = Vec::with_capacity(n);
                let mut start = 0usize;
                let mut acc = 0usize;
                for (i, &c) in row_nnz.iter().enumerate() {
                    acc += c;
                    let shard = ranges.len();
                    if shard + 1 == n {
                        break; // the last shard takes everything left
                    }
                    let filled = i + 1;
                    let target_met = acc * n >= (shard + 1) * total;
                    let must_close = rows - filled == n - shard - 1;
                    if target_met || must_close {
                        ranges.push((start, filled));
                        start = filled;
                    }
                }
                ranges.push((start, rows));
                ranges
            }
        }
    }
}

/// `rows` divided into `n` contiguous shards of equal size (±1 row), clamped to `rows`.
fn even_split(rows: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.clamp(1, rows);
    (0..n).map(|i| (i * rows / n, (i + 1) * rows / n)).collect()
}

/// One row shard of a split operand, memoized so repeated prepares of the same
/// (operand, config, policy) never re-extract or rescan rows.
#[derive(Debug)]
struct ShardPiece {
    range: (usize, usize),
    /// Content fingerprint of the shard's rows (scanned once at split time). The shard
    /// matrix itself is **not** retained — the memo stays a few words per shard, and the
    /// rows are re-extracted on demand only when a shard's cache entry was evicted.
    fingerprint: u64,
}

/// Memo key: the parent operand's content identity plus the split policy. The
/// decomposition config is *not* part of the key — the split depends only on the rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ShardSplitKey {
    fingerprint: u64,
    shape: (usize, usize),
    policy: ShardPolicy,
}

/// Memoized shard splits (ranges + shard fingerprints only — bytes per entry, not a copy
/// of the operand), bounded like the plan memo.
#[derive(Debug, Default)]
pub(crate) struct ShardSplitMemo {
    entries: HashMap<ShardSplitKey, Arc<Vec<ShardPiece>>>,
}

impl ShardSplitMemo {
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

/// One prepared shard of a [`ShardedSeries`].
#[derive(Debug, Clone)]
pub struct PreparedShard {
    range: (usize, usize),
    prepared: Arc<PreparedSeries>,
    cache_hit: bool,
}

impl PreparedShard {
    /// The row range `[r0, r1)` of the parent operand this shard covers.
    pub fn range(&self) -> (usize, usize) {
        self.range
    }

    /// The shard's own prepared decomposition (shape `(r1 - r0, cols)`).
    pub fn prepared(&self) -> &Arc<PreparedSeries> {
        &self.prepared
    }

    /// Whether this shard's decomposition came out of the cache at prepare time.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Stored non-zeros across this shard's terms.
    pub fn nnz(&self) -> usize {
        self.prepared.nnz()
    }
}

/// A row-sharded prepared decomposition: one independently prepared [`PreparedSeries`]
/// per row shard, executable as a whole via
/// [`series_gemm_sharded`](ExecutionEngine::series_gemm_sharded). Produced by
/// [`ExecutionEngine::prepare_sharded`]; each shard's series lives in the engine's
/// decomposition cache under the shard's own fingerprint.
#[derive(Debug, Clone)]
pub struct ShardedSeries {
    shape: (usize, usize),
    config: TasdConfig,
    shards: Vec<PreparedShard>,
}

impl ShardedSeries {
    /// Shape of the whole (unsharded) operand.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// The configuration every shard was decomposed with.
    pub fn config(&self) -> &TasdConfig {
        &self.config
    }

    /// Number of row shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The prepared shards, in row order.
    pub fn shards(&self) -> &[PreparedShard] {
        &self.shards
    }

    /// Total stored non-zeros across every shard's terms. Because decomposition is
    /// row-local, this equals the whole-matrix series' nnz exactly.
    pub fn nnz(&self) -> usize {
        self.shards.iter().map(PreparedShard::nnz).sum()
    }

    /// Whether *every* shard was served from the decomposition cache at prepare time.
    pub fn all_cache_hits(&self) -> bool {
        self.shards.iter().all(PreparedShard::cache_hit)
    }
}

/// Telemetry for one shard of a sharded execution, from
/// [`ExecutionEngine::series_gemm_sharded_with_telemetry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardTelemetry {
    /// Shard index, in row order.
    pub shard: usize,
    /// Row range `[r0, r1)` of the parent operand.
    pub rows: (usize, usize),
    /// Stored non-zeros across the shard's terms.
    pub nnz: usize,
    /// Estimated effectual MACs of the shard's memoized plan.
    pub plan_cost: u64,
    /// Per-term backend assignment the shard executed with (e.g. `"csr+nm"`).
    pub backends: String,
    /// Whether the shard's decomposition was a cache hit at prepare time.
    pub cache_hit: bool,
    /// Wall-clock nanoseconds this shard's kernel passes took on its worker.
    pub exec_ns: u128,
}

/// Whole-execution telemetry of one sharded GEMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedTelemetry {
    /// Per-shard telemetry, in row order.
    pub shards: Vec<ShardTelemetry>,
    /// Worker threads the shards were distributed over (1 = executed inline).
    pub workers: usize,
}

impl ShardedTelemetry {
    /// Summed stored non-zeros across shards (equals the unsharded series' nnz).
    pub fn total_nnz(&self) -> usize {
        self.shards.iter().map(|s| s.nnz).sum()
    }

    /// Summed plan-cost estimate across shards.
    pub fn total_plan_cost(&self) -> u64 {
        self.shards.iter().map(|s| s.plan_cost).sum()
    }

    /// Summed per-shard execution time (across workers, so it can exceed wall-clock).
    pub fn total_exec_ns(&self) -> u128 {
        self.shards.iter().map(|s| s.exec_ns).sum()
    }

    /// `true` if the shard ranges are contiguous, disjoint, and cover `0..rows` exactly.
    pub fn covers_rows(&self, rows: usize) -> bool {
        let mut next = 0usize;
        for s in &self.shards {
            if s.rows.0 != next || s.rows.1 < s.rows.0 {
                return false;
            }
            next = s.rows.1;
        }
        next == rows
    }
}

impl ExecutionEngine {
    /// The shard policy this engine applies to an operand with `rows` rows under its
    /// [`submit`](Self::submit) and serving-warmup routing: `Some` only when a policy was
    /// configured ([`EngineBuilder::shard_policy`](super::EngineBuilder::shard_policy))
    /// and the operand reaches
    /// [`shard_min_rows`](super::EngineBuilder::shard_min_rows).
    pub fn shard_policy_for(&self, rows: usize) -> Option<&ShardPolicy> {
        match &self.shard_policy {
            Some(policy) if rows >= self.shard_min_rows.max(2) => Some(policy),
            _ => None,
        }
    }

    /// The memoized shard split of `a` under `policy`: row ranges and shard
    /// fingerprints. Splitting scans the operand once (row nnz for balanced policies,
    /// one fingerprint scan per shard); repeats are served from the memo keyed by the
    /// parent's content fingerprint. The memo holds a few words per shard — never the
    /// shard rows themselves — so it adds nothing to the engine's byte budget. On a
    /// fresh split the extracted shard matrices are handed back (second tuple element)
    /// so the cold prepare path can decompose them without re-extracting; they are not
    /// retained anywhere.
    fn shard_split(
        &self,
        a: &Arc<Matrix>,
        policy: &ShardPolicy,
        parent_fingerprint: u64,
    ) -> (Arc<Vec<ShardPiece>>, Option<Vec<Matrix>>) {
        let key = ShardSplitKey {
            fingerprint: parent_fingerprint,
            shape: a.shape(),
            policy: policy.clone(),
        };
        if let Some(hit) = lock_or_panic(&self.shard_splits, "shard split memo")
            .entries
            .get(&key)
        {
            return (Arc::clone(hit), None);
        }
        let mut matrices = Vec::new();
        let pieces: Vec<ShardPiece> = policy
            .split(a)
            .into_iter()
            .map(|(r0, r1)| {
                let matrix = a.row_block(r0, r1);
                let fingerprint = self.scan_fingerprint(&matrix);
                matrices.push(matrix);
                ShardPiece {
                    range: (r0, r1),
                    fingerprint,
                }
            })
            .collect();
        let pieces = Arc::new(pieces);
        let mut memo = lock_or_panic(&self.shard_splits, "shard split memo");
        if memo.entries.len() >= SHARD_SPLIT_MEMO_CAPACITY {
            memo.entries.clear();
        }
        memo.entries.insert(key, Arc::clone(&pieces));
        (pieces, Some(matrices))
    }

    /// Splits `a` into row shards under `policy` and prepares each shard independently
    /// through the decomposition cache: every shard gets its own TASD series, packed
    /// formats, and memoizable plan, keyed by the *shard's* content fingerprint — so a
    /// shard shared by many requests (or re-split from the same parent) is decomposed at
    /// most once engine-wide.
    ///
    /// The split itself (ranges + shard fingerprint scans) is memoized per
    /// `(parent fingerprint, shape, policy)`, so warm calls perform zero operand scans
    /// and exactly one cache lookup per shard; shard rows are re-extracted from `a` only
    /// for shards whose cache entry is missing (cold or evicted). Telemetry contract:
    /// each returned shard records whether its lookup hit.
    ///
    /// This is the explicit sharding surface: it shards whatever it is handed, however
    /// small. The implicit one is the engine's own routing
    /// ([`EngineBuilder::shard_policy`](super::EngineBuilder::shard_policy) +
    /// [`shard_min_rows`](super::EngineBuilder::shard_min_rows)), which applies a policy
    /// only to oversized operands inside [`submit`](ExecutionEngine::submit) and the
    /// serving warmup path.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tasd::{ExecutionEngine, ShardPolicy, TasdConfig};
    /// use tasd_tensor::MatrixGenerator;
    ///
    /// let engine = ExecutionEngine::builder().build();
    /// let mut gen = MatrixGenerator::seeded(9);
    /// let a = Arc::new(gen.sparse_normal(64, 32, 0.9));
    /// let b = gen.normal(32, 8, 0.0, 1.0);
    /// let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    ///
    /// let sharded = engine.prepare_sharded(&a, &cfg, &ShardPolicy::NnzBalanced(4));
    /// assert_eq!(sharded.num_shards(), 4);
    /// let c = engine.series_gemm_sharded(&sharded, &b).unwrap();
    ///
    /// // Bitwise identical to the unsharded prepared path on the same engine.
    /// let unsharded = engine.prepare_shared(&a, &cfg);
    /// assert_eq!(c, engine.series_gemm_prepared(&unsharded, &b).unwrap());
    /// ```
    pub fn prepare_sharded(
        &self,
        a: &Arc<Matrix>,
        config: &TasdConfig,
        policy: &ShardPolicy,
    ) -> ShardedSeries {
        let parent_fingerprint = self.fingerprint_of(a);
        let (pieces, fresh_matrices) = self.shard_split(a, policy, parent_fingerprint);
        let shards = pieces
            .iter()
            .enumerate()
            .map(|(i, piece)| {
                let (r0, r1) = piece.range;
                let key = CacheKey {
                    fingerprint: piece.fingerprint,
                    shape: (r1 - r0, a.cols()),
                    config: config.clone(),
                };
                let (prepared, cache_hit) = match self.lookup_prepared(&key) {
                    Some(hit) => (hit, true),
                    None => {
                        // A fresh split (the common cold case) already extracted the
                        // shard rows for fingerprinting — reuse them; only an evicted
                        // entry behind a memoized split re-extracts.
                        let prepared = match fresh_matrices.as_ref().and_then(|m| m.get(i)) {
                            Some(matrix) => {
                                self.prepare_uncached(matrix, config, piece.fingerprint)
                            }
                            None => self.prepare_uncached(
                                &a.row_block(r0, r1),
                                config,
                                piece.fingerprint,
                            ),
                        };
                        (prepared, false)
                    }
                };
                PreparedShard {
                    range: piece.range,
                    prepared,
                    cache_hit,
                }
            })
            .collect();
        ShardedSeries {
            shape: a.shape(),
            config: config.clone(),
            shards,
        }
    }

    /// Executes `C += Σᵢ shard(Aᵢ)·B` for every shard, each shard writing its own
    /// disjoint row range of `C` through its terms' planned sequential kernels
    /// (`gemm_rows_into`), distributed over a worker pool when more than one worker is
    /// available. Bitwise identical to executing the unsharded prepared series.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    // lint: hot-path
    pub fn series_gemm_sharded_into(
        &self,
        sharded: &ShardedSeries,
        b: &Matrix,
        c: &mut Matrix,
    ) -> Result<()> {
        // The hot path: no timing, no plan lookups, no telemetry allocation.
        self.execute_sharded(sharded, b, c, None).map(|_| ())
    }

    /// [`series_gemm_sharded_into`](Self::series_gemm_sharded_into) allocating the
    /// output.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    pub fn series_gemm_sharded(&self, sharded: &ShardedSeries, b: &Matrix) -> Result<Matrix> {
        let mut c = Matrix::zeros(sharded.shape().0, b.cols());
        self.series_gemm_sharded_into(sharded, b, &mut c)?;
        Ok(c)
    }

    /// [`series_gemm_sharded`](Self::series_gemm_sharded), also reporting per-shard
    /// telemetry: nnz, plan cost, backend choices, prepare-time cache hits, and
    /// per-worker execution nanoseconds. The plan lookups, backend-summary strings, and
    /// timing exist only on this variant — the plain execution paths do none of that
    /// work.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent shapes.
    pub fn series_gemm_sharded_with_telemetry(
        &self,
        sharded: &ShardedSeries,
        b: &Matrix,
    ) -> Result<(Matrix, ShardedTelemetry)> {
        let mut c = Matrix::zeros(sharded.shape().0, b.cols());
        let mut exec_ns = vec![0u128; sharded.num_shards()];
        let workers = self.execute_sharded(sharded, b, &mut c, Some(&mut exec_ns))?;
        let n_cols = b.cols();
        let shards = sharded
            .shards
            .iter()
            .enumerate()
            .map(|(idx, shard)| ShardTelemetry {
                shard: idx,
                rows: shard.range,
                nnz: shard.nnz(),
                // The memoized plan pins each term's backend and carries the cost
                // estimate; shard-level distribution replaces its parallel flag.
                plan_cost: self.plan_prepared(&shard.prepared, n_cols).estimated_macs(),
                backends: shard.prepared.summary(),
                cache_hit: shard.cache_hit,
                exec_ns: exec_ns[idx],
            })
            .collect();
        Ok((c, ShardedTelemetry { shards, workers }))
    }

    /// Shared execution body: shape checks, output slab partitioning, worker-pool
    /// dispatch. `exec_ns` (one slot per shard) turns per-shard timing on; `None` is the
    /// hot path. Returns the worker count used.
    // lint: hot-path, allow(indexing): exec_ns timing slots are sized to the shard
    // count by every caller, and idx enumerates those same shards
    fn execute_sharded(
        &self,
        sharded: &ShardedSeries,
        b: &Matrix,
        c: &mut Matrix,
        mut exec_ns: Option<&mut Vec<u128>>,
    ) -> Result<usize> {
        let (m, k) = sharded.shape();
        if k != b.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "sharded series gemm",
                lhs: (m, k),
                rhs: b.shape(),
            });
        }
        if c.rows() != m || c.cols() != b.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "sharded series gemm accumulator",
                lhs: (m, b.cols()),
                rhs: c.shape(),
            });
        }
        let n_cols = b.cols();
        let timed = exec_ns.is_some();

        // Carve the output into one disjoint contiguous slab per shard. Ranges are
        // contiguous and covering by construction, so successive split_at_mut calls
        // partition the buffer exactly.
        let mut jobs: Vec<(usize, &PreparedShard, &mut [f32])> =
            Vec::with_capacity(sharded.shards.len());
        let mut rest = c.rows_slice_mut(0, m);
        for (idx, shard) in sharded.shards.iter().enumerate() {
            let (r0, r1) = shard.range;
            let (slab, tail) = rest.split_at_mut((r1 - r0) * n_cols);
            jobs.push((idx, shard, slab));
            rest = tail;
        }
        debug_assert!(
            rest.is_empty(),
            "shard ranges must cover the output exactly"
        );

        // Worker count captured once at engine construction (`EngineBuilder::workers`):
        // placement never depends on when the call runs, and the environment is never
        // re-probed on the hot path.
        let workers = self.executor().workers().clamp(1, jobs.len().max(1));
        if workers <= 1 {
            for (idx, shard, slab) in jobs {
                let ns = self.execute_shard(shard, b, slab, n_cols, timed);
                if let Some(out) = exec_ns.as_deref_mut() {
                    out[idx] = ns;
                }
            }
            Ok(1)
        } else {
            // Contiguous chunks of shards per worker: balanced policies already equalize
            // per-shard work, and chunking keeps each worker's output writes local.
            let chunk = jobs.len().div_ceil(workers);
            let mut chunks: Vec<Vec<(usize, &PreparedShard, &mut [f32])>> = Vec::new();
            let mut jobs = jobs.into_iter();
            loop {
                let batch: Vec<_> = jobs.by_ref().take(chunk).collect();
                if batch.is_empty() {
                    break;
                }
                chunks.push(batch);
            }
            // Ceil-division rounding can leave fewer chunks than workers; report the
            // job count actually distributed (telemetry is the load-balance signal).
            let distributed = chunks.len();
            // One timing slot per chunk, written by whichever executor thread runs it.
            let mut chunk_timings: Vec<Vec<(usize, u128)>> =
                chunks.iter().map(|c| Vec::with_capacity(c.len())).collect();
            // Every chunk is one job on the engine's *shared* executor: concurrent
            // sharded batches interleave on one pool instead of each spawning their
            // own scoped threads. Shards are independent and write disjoint slabs, so
            // placement changes under load while results stay bitwise identical.
            let tasks: Vec<Job> = chunks
                .into_iter()
                .zip(chunk_timings.iter_mut())
                .map(|(batch, out)| {
                    let task = move || {
                        for (idx, shard, slab) in batch {
                            out.push((idx, self.execute_shard(shard, b, slab, n_cols, timed)));
                        }
                    };
                    Box::new(task) as Job
                })
                .collect();
            self.executor().run_all(tasks);
            if let Some(out) = exec_ns {
                for (idx, ns) in chunk_timings.into_iter().flatten() {
                    out[idx] = ns;
                }
            }
            Ok(distributed)
        }
    }

    /// Runs one shard's terms through their planned sequential kernels into the shard's
    /// output slab, returning the wall-clock nanoseconds spent (`0` when untimed).
    // lint: hot-path, warm-path
    fn execute_shard(
        &self,
        shard: &PreparedShard,
        b: &Matrix,
        slab: &mut [f32],
        n_cols: usize,
        timed: bool,
    ) -> u128 {
        let rows = shard.range.1 - shard.range.0;
        let start = timed.then(Instant::now);
        for (i, term) in shard.prepared.terms().iter().enumerate() {
            self.backend_for_kind(term.backend()).gemm_rows_into(
                shard.prepared.operand(i),
                b,
                0,
                rows,
                slab,
                n_cols,
            );
        }
        start.map_or(0, |s| s.elapsed().as_nanos())
    }

    /// Warms the engine's caches for serving the shared operand `a` under `config`,
    /// routing through the sharded path when [`shard_policy_for`](Self::shard_policy_for)
    /// applies and through [`prepare_shared`](Self::prepare_shared) otherwise. This is
    /// what `Mlp::prepare_serving` calls per layer, so large layers warm one cache entry
    /// per shard.
    pub fn warm_serving_operand(&self, a: &Arc<Matrix>, config: &TasdConfig) {
        if let Some(policy) = self.shard_policy_for(a.rows()).cloned() {
            let _ = self.prepare_sharded(a, config, &policy);
        } else {
            let _ = self.prepare_shared(a, config);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_tensor::MatrixGenerator;

    fn assert_covers(ranges: &[(usize, usize)], rows: usize) {
        let mut next = 0;
        for &(r0, r1) in ranges {
            assert_eq!(r0, next, "ranges must be contiguous");
            assert!(r1 > r0, "ranges must be non-empty");
            next = r1;
        }
        assert_eq!(next, rows, "ranges must cover every row");
    }

    #[test]
    fn fixed_rows_split_handles_ragged_tails() {
        let a = Matrix::zeros(37, 4);
        let ranges = ShardPolicy::FixedRows(16).split(&a);
        assert_eq!(ranges, vec![(0, 16), (16, 32), (32, 37)]);
        assert_covers(&ranges, 37);
        // Zero is treated as one row per shard.
        assert_eq!(ShardPolicy::FixedRows(0).split(&a).len(), 37);
    }

    #[test]
    fn target_shards_split_is_even_and_clamped() {
        let a = Matrix::zeros(10, 2);
        let ranges = ShardPolicy::TargetShards(3).split(&a);
        assert_eq!(ranges, vec![(0, 3), (3, 6), (6, 10)]);
        assert_covers(&ranges, 10);
        // More shards than rows: one row each.
        let ranges = ShardPolicy::TargetShards(99).split(&a);
        assert_eq!(ranges.len(), 10);
        assert_covers(&ranges, 10);
        // Zero target behaves like one shard.
        assert_eq!(ShardPolicy::TargetShards(0).split(&a), vec![(0, 10)]);
    }

    #[test]
    fn zero_row_operands_split_to_nothing() {
        let a = Matrix::zeros(0, 8);
        assert!(ShardPolicy::FixedRows(4).split(&a).is_empty());
        assert!(ShardPolicy::TargetShards(4).split(&a).is_empty());
        assert!(ShardPolicy::NnzBalanced(4).split(&a).is_empty());
    }

    #[test]
    fn nnz_balanced_split_equalizes_stored_work() {
        // Rows 0..8 dense, rows 8..64 empty: a row-balanced split would give the first
        // worker all the non-zeros; the nnz-balanced split isolates the dense band.
        let mut a = Matrix::zeros(64, 16);
        for i in 0..8 {
            for j in 0..16 {
                a[(i, j)] = 1.0 + (i * 16 + j) as f32;
            }
        }
        let ranges = ShardPolicy::NnzBalanced(4).split(&a);
        assert_covers(&ranges, 64);
        assert_eq!(ranges.len(), 4);
        let nnz: Vec<usize> = ranges
            .iter()
            .map(|&(r0, r1)| a.row_block(r0, r1).count_nonzeros())
            .collect();
        // First three shards carve up the dense band (~2-3 rows each); the all-zero tail
        // lands in the last shard.
        assert!(nnz[0] > 0 && nnz[1] > 0 && nnz[2] > 0);
        assert!(ranges[3].0 <= 8, "empty tail must not bloat early shards");
        let total: usize = nnz.iter().sum();
        assert_eq!(total, a.count_nonzeros());
    }

    #[test]
    fn nnz_balanced_split_of_all_zero_matrix_falls_back_to_even() {
        let a = Matrix::zeros(12, 4);
        let ranges = ShardPolicy::NnzBalanced(3).split(&a);
        assert_eq!(ranges, vec![(0, 4), (4, 8), (8, 12)]);
    }

    #[test]
    fn nnz_balanced_split_on_random_data_covers_and_balances() {
        let mut gen = MatrixGenerator::seeded(51);
        for (rows, sparsity, shards) in [(97, 0.9, 5), (33, 0.5, 7), (16, 0.0, 16)] {
            let a = gen.sparse_normal(rows, 24, sparsity);
            let ranges = ShardPolicy::NnzBalanced(shards).split(&a);
            assert_covers(&ranges, rows);
            assert!(ranges.len() <= shards);
        }
    }

    #[test]
    fn prepare_sharded_places_one_cache_entry_per_shard() {
        let mut gen = MatrixGenerator::seeded(52);
        let e = ExecutionEngine::builder().build();
        let a = Arc::new(gen.sparse_normal(48, 32, 0.8));
        let cfg = TasdConfig::parse("2:8").unwrap();
        let sharded = e.prepare_sharded(&a, &cfg, &ShardPolicy::TargetShards(3));
        assert_eq!(sharded.num_shards(), 3);
        assert!(!sharded.all_cache_hits(), "cold shards must decompose");
        assert_eq!(e.cache_stats().misses, 3);
        assert_eq!(e.cache_stats().entries, 3);
        // Warm: one hit per shard, zero scans (split memo), zero prepares.
        let before = e.prep_stats();
        let again = e.prepare_sharded(&a, &cfg, &ShardPolicy::TargetShards(3));
        assert!(again.all_cache_hits());
        let after = e.prep_stats();
        assert_eq!(e.cache_stats().hits, 3);
        assert_eq!(after.prepares, before.prepares);
        assert_eq!(after.fingerprint_scans, before.fingerprint_scans);
        assert_eq!(after.conversions, before.conversions);
    }

    #[test]
    fn sharded_nnz_equals_unsharded_nnz() {
        let mut gen = MatrixGenerator::seeded(53);
        let e = ExecutionEngine::builder().build();
        let a = Arc::new(gen.sparse_normal(61, 40, 0.7));
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        let sharded = e.prepare_sharded(&a, &cfg, &ShardPolicy::FixedRows(9));
        let whole = e.prepare_shared(&a, &cfg);
        assert_eq!(sharded.nnz(), whole.nnz());
    }

    #[test]
    fn clear_cache_forgets_shard_splits() {
        let mut gen = MatrixGenerator::seeded(54);
        let e = ExecutionEngine::builder().build();
        let a = Arc::new(gen.sparse_normal(24, 16, 0.5));
        let cfg = TasdConfig::parse("2:8").unwrap();
        let _ = e.prepare_sharded(&a, &cfg, &ShardPolicy::TargetShards(2));
        e.clear_cache();
        let before = e.prep_stats();
        let _ = e.prepare_sharded(&a, &cfg, &ShardPolicy::TargetShards(2));
        let after = e.prep_stats();
        assert!(
            after.fingerprint_scans > before.fingerprint_scans,
            "cleared split memo must rescan shards"
        );
        assert_eq!(after.prepares, before.prepares + 2);
    }

    #[test]
    fn single_shard_shares_the_whole_matrix_cache_entry() {
        // A policy that yields one shard produces a shard identical to the parent, so it
        // lands on the same cache key as an unsharded prepare.
        let mut gen = MatrixGenerator::seeded(55);
        let e = ExecutionEngine::builder().build();
        let a = Arc::new(gen.sparse_normal(20, 16, 0.6));
        let cfg = TasdConfig::parse("2:8").unwrap();
        let _ = e.prepare_shared(&a, &cfg);
        let sharded = e.prepare_sharded(&a, &cfg, &ShardPolicy::TargetShards(1));
        assert_eq!(sharded.num_shards(), 1);
        assert!(sharded.all_cache_hits(), "same content, same cache key");
        assert_eq!(e.cache_stats().entries, 1);
    }

    #[test]
    fn shard_routing_honors_policy_and_min_rows() {
        let e = ExecutionEngine::builder()
            .shard_policy(ShardPolicy::TargetShards(4))
            .shard_min_rows(64)
            .build();
        assert!(e.shard_policy_for(64).is_some());
        assert!(e.shard_policy_for(63).is_none());
        let plain = ExecutionEngine::builder().build();
        assert!(plain.shard_policy_for(1 << 20).is_none());
    }
}
