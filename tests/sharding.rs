//! Sharding correctness + stress suite: row-sharded execution must be **bitwise
//! identical** to unsharded execution — across every backend, sparsity, shard count,
//! ragged split, empty shard, worker count, and the batched `submit` path — and its
//! telemetry must account every row and non-zero exactly once.
//!
//! Why bitwise (not approx) is the right bar: the greedy N:M decomposition constrains
//! blocks *along* rows and every GEMM kernel accumulates each output row's stored
//! entries in ascending-column order, so splitting rows changes neither what is computed
//! nor the order it is accumulated in. Anything weaker would let sharding silently
//! change serving results.
//!
//! The multi-thread stress test pins 1, 4, and 8 executor workers with
//! `EngineBuilder::workers` (captured once at build time, so the engine is rebuilt per
//! setting); the pool threads are real on any host.

use proptest::prelude::*;
use std::sync::Arc;
use tasd::{BatchRequest, ExecutionEngine, ShardPolicy, ShardedSeries, TasdConfig};
use tasd_tensor::backend::{CsrBackend, DenseBackend, NmBackend};
use tasd_tensor::{Matrix, MatrixGenerator};

/// The sparsity grid the acceptance criteria name.
const SPARSITIES: [f64; 4] = [0.0, 0.5, 0.9, 0.97];

/// The shard-count grid: 1, 2, 3, 7, one-per-row, an nnz-balanced split, and a fixed-row
/// split that leaves a ragged tail for most row counts.
fn policies(rows: usize) -> Vec<ShardPolicy> {
    vec![
        ShardPolicy::TargetShards(1),
        ShardPolicy::TargetShards(2),
        ShardPolicy::TargetShards(3),
        ShardPolicy::TargetShards(7),
        ShardPolicy::TargetShards(rows.max(1)),
        ShardPolicy::NnzBalanced(3),
        ShardPolicy::FixedRows(5),
    ]
}

/// One engine per backend regime: the density-driven default, each kernel forced, and
/// the sequential (single-worker) variant.
fn engines() -> Vec<(&'static str, Arc<ExecutionEngine>)> {
    vec![
        ("default", Arc::new(ExecutionEngine::builder().build())),
        (
            "forced-dense",
            Arc::new(
                ExecutionEngine::builder()
                    .backend(Arc::new(DenseBackend::default()))
                    .build(),
            ),
        ),
        (
            "forced-csr",
            Arc::new(
                ExecutionEngine::builder()
                    .backend(Arc::new(CsrBackend::default()))
                    .build(),
            ),
        ),
        (
            "forced-nm",
            Arc::new(
                ExecutionEngine::builder()
                    .backend(Arc::new(NmBackend::default()))
                    .build(),
            ),
        ),
        (
            "sequential",
            Arc::new(ExecutionEngine::builder().workers(1).build()),
        ),
    ]
}

/// The unsharded reference on the same engine: whole-matrix prepared execution.
fn unsharded(engine: &ExecutionEngine, a: &Arc<Matrix>, cfg: &TasdConfig, b: &Matrix) -> Matrix {
    let prepared = engine.prepare_shared(a, cfg);
    engine.series_gemm_prepared(&prepared, b).unwrap()
}

fn assert_sharded_matches(
    label: &str,
    engine: &Arc<ExecutionEngine>,
    policy: &ShardPolicy,
    a: &Arc<Matrix>,
    cfg: &TasdConfig,
    b: &Matrix,
) -> ShardedSeries {
    let sharded = engine.prepare_sharded(a, cfg, policy);
    let got = engine.series_gemm_sharded(&sharded, b).unwrap();
    let expected = unsharded(engine, a, cfg, b);
    assert_eq!(
        got, expected,
        "{label}: {policy:?} must be bitwise identical to unsharded execution"
    );
    sharded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes × the full sparsity and shard-count grids, on the density-driven
    /// default engine (per-shard planning can mix kernels here — the hardest case).
    #[test]
    fn sharded_equals_unsharded_bitwise(
        m in 1usize..=96,
        k in 1usize..=64,
        width in 1usize..=8,
        sparsity_idx in 0usize..SPARSITIES.len(),
        seed in 0u64..u64::MAX,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let a = Arc::new(gen.sparse_normal(m, k, SPARSITIES[sparsity_idx]));
        let b = gen.normal(k, width, 0.0, 1.0);
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        let engine = Arc::new(ExecutionEngine::builder().build());
        for policy in policies(m) {
            assert_sharded_matches("default engine", &engine, &policy, &a, &cfg, &b);
        }
    }
}

#[test]
fn every_backend_agrees_across_the_sparsity_and_shard_grids() {
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    for (label, engine) in engines() {
        let mut gen = MatrixGenerator::seeded(0x5A4D);
        for sparsity in SPARSITIES {
            let a = Arc::new(gen.sparse_normal(64, 48, sparsity));
            let b = gen.normal(48, 6, 0.0, 1.0);
            for policy in policies(64) {
                assert_sharded_matches(label, &engine, &policy, &a, &cfg, &b);
            }
        }
    }
}

#[test]
fn ragged_row_splits_cover_every_row() {
    // 37 rows at 16 rows per shard: shards of 16, 16, and 5 rows.
    let mut gen = MatrixGenerator::seeded(0xA66ED);
    let a = Arc::new(gen.sparse_normal(37, 40, 0.9));
    let b = gen.normal(40, 5, 0.0, 1.0);
    let cfg = TasdConfig::parse("2:8").unwrap();
    let engine = Arc::new(ExecutionEngine::builder().build());
    let sharded =
        assert_sharded_matches("ragged", &engine, &ShardPolicy::FixedRows(16), &a, &cfg, &b);
    let ranges: Vec<(usize, usize)> = sharded.shards().iter().map(|s| s.range()).collect();
    assert_eq!(ranges, vec![(0, 16), (16, 32), (32, 37)]);
}

#[test]
fn empty_shards_of_all_zero_row_blocks_are_exact() {
    // Rows 16..48 are all zero: the middle shards decompose to empty terms and must
    // contribute exactly zero rows, bitwise.
    let mut gen = MatrixGenerator::seeded(0xE0);
    let mut a = gen.sparse_normal(64, 32, 0.5);
    for i in 16..48 {
        for v in a.row_mut(i) {
            *v = 0.0;
        }
    }
    let a = Arc::new(a);
    let b = gen.normal(32, 4, 0.0, 1.0);
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let engine = Arc::new(ExecutionEngine::builder().build());
    for policy in [ShardPolicy::TargetShards(4), ShardPolicy::NnzBalanced(4)] {
        let sharded = assert_sharded_matches("empty shards", &engine, &policy, &a, &cfg, &b);
        if policy == ShardPolicy::TargetShards(4) {
            // The even split isolates 16..32 and 32..48 as all-zero shards.
            assert!(
                sharded.shards().iter().any(|s| s.nnz() == 0),
                "the zero band must yield at least one empty shard"
            );
        }
    }
}

#[test]
fn telemetry_accounts_every_row_and_nonzero_exactly_once() {
    let mut gen = MatrixGenerator::seeded(0x7E1E);
    let a = Arc::new(gen.sparse_normal(80, 48, 0.8));
    let b = gen.normal(48, 6, 0.0, 1.0);
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let engine = Arc::new(ExecutionEngine::builder().build());
    let whole_nnz = engine.prepare_shared(&a, &cfg).nnz();
    for policy in policies(80) {
        let sharded = engine.prepare_sharded(&a, &cfg, &policy);
        let (_, telemetry) = engine
            .series_gemm_sharded_with_telemetry(&sharded, &b)
            .unwrap();
        assert!(
            telemetry.covers_rows(80),
            "{policy:?}: shard ranges must be disjoint and cover all rows"
        );
        assert_eq!(
            telemetry.total_nnz(),
            whole_nnz,
            "{policy:?}: summed per-shard nnz must equal the operand's series nnz"
        );
        assert_eq!(telemetry.shards.len(), sharded.num_shards());
        assert!(telemetry.workers >= 1);
        // Plan costs are per-shard nnz × width-bucket — nonnegative and summable.
        assert_eq!(
            telemetry.total_plan_cost(),
            telemetry.shards.iter().map(|s| s.plan_cost).sum::<u64>()
        );
        for shard in &telemetry.shards {
            assert!(!shard.backends.is_empty() || shard.nnz == 0);
        }
    }
}

#[test]
fn warm_sharded_submit_never_converts_replans_or_rescans() {
    let mut gen = MatrixGenerator::seeded(0x5B);
    let a = Arc::new(gen.sparse_normal(128, 64, 0.9));
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let engine = ExecutionEngine::builder()
        .shard_policy(ShardPolicy::NnzBalanced(4))
        .shard_min_rows(64)
        .build();
    let plain = ExecutionEngine::builder().build();
    let requests = |gen: &mut MatrixGenerator| -> Vec<BatchRequest> {
        (0..6)
            .map(|_| {
                BatchRequest::decomposed(Arc::clone(&a), cfg.clone(), gen.normal(64, 3, 0.0, 1.0))
            })
            .collect()
    };

    // Cold sharded batch: one group, decomposed once per shard (4 cache misses).
    let batch = requests(&mut gen);
    let (responses, telemetry) = engine.submit_with_telemetry(batch.clone());
    assert_eq!(telemetry.groups.len(), 1);
    assert!(telemetry.groups[0].decomposed);
    assert_eq!(telemetry.cache_misses, 4, "one miss per shard");
    // Bitwise identical to an unsharded engine on the same requests.
    for (sharded_resp, plain_resp) in responses.iter().zip(plain.submit(batch)) {
        assert_eq!(
            sharded_resp.output.as_ref().unwrap(),
            plain_resp.output.as_ref().unwrap(),
            "sharded submit must be bitwise identical to unsharded submit"
        );
    }

    // Warm sharded batch: per-shard cache hits, zero conversions / replans / rescans.
    let _ = engine.submit(requests(&mut gen)); // settle plan memo across widths
    let before = engine.prep_stats();
    let hits_before = engine.cache_stats().hits;
    let (responses, telemetry) = engine.submit_with_telemetry(requests(&mut gen));
    assert!(responses.iter().all(|r| r.output.is_ok()));
    let after = engine.prep_stats();
    assert_eq!(telemetry.decompositions, 0, "warm batch must not decompose");
    assert!(telemetry.groups[0].cache_hit);
    assert_eq!(
        engine.cache_stats().hits,
        hits_before + 4,
        "a warm sharded batch takes exactly one cache hit per shard"
    );
    assert_eq!(after.conversions, before.conversions, "no conversions");
    assert_eq!(after.plans_computed, before.plans_computed, "no replans");
    assert_eq!(
        after.fingerprint_scans, before.fingerprint_scans,
        "no operand rescans"
    );
}

#[test]
fn sharded_execution_is_worker_count_invariant() {
    let mut gen = MatrixGenerator::seeded(0xC0DE);
    let a = Arc::new(gen.sparse_normal(192, 96, 0.85));
    let b = gen.normal(96, 12, 0.0, 1.0);
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let mut baseline: Option<Matrix> = None;
    for workers in [1usize, 4, 8] {
        let engine = ExecutionEngine::builder().workers(workers).build();
        for policy in [
            ShardPolicy::TargetShards(8),
            ShardPolicy::NnzBalanced(8),
            ShardPolicy::FixedRows(11),
        ] {
            let sharded = engine.prepare_sharded(&a, &cfg, &policy);
            let (c, telemetry) = engine
                .series_gemm_sharded_with_telemetry(&sharded, &b)
                .unwrap();
            assert!(telemetry.workers <= workers);
            match &baseline {
                None => baseline = Some(c),
                Some(expected) => {
                    assert_eq!(expected, &c, "{workers} workers diverged");
                }
            }
        }
    }
}

#[test]
fn zero_row_and_zero_width_edges_are_well_formed() {
    let engine = Arc::new(ExecutionEngine::builder().build());
    let cfg = TasdConfig::parse("2:8").unwrap();
    // Zero rows: no shards, empty output.
    let empty = Arc::new(Matrix::zeros(0, 16));
    let policy = ShardPolicy::TargetShards(4);
    let sharded = engine.prepare_sharded(&empty, &cfg, &policy);
    assert_eq!(sharded.num_shards(), 0);
    let c = engine
        .series_gemm_sharded(&sharded, &Matrix::zeros(16, 3))
        .unwrap();
    assert_eq!(c.shape(), (0, 3));
    // Zero output width flows through every shard.
    let mut gen = MatrixGenerator::seeded(1);
    let a = Arc::new(gen.sparse_normal(24, 16, 0.5));
    let sharded = engine.prepare_sharded(&a, &cfg, &policy);
    let c = engine
        .series_gemm_sharded(&sharded, &Matrix::zeros(16, 0))
        .unwrap();
    assert_eq!(c.shape(), (24, 0));
    // Shape mismatches are rejected, not panicked on.
    assert!(engine
        .series_gemm_sharded(&sharded, &Matrix::zeros(15, 2))
        .is_err());
}
