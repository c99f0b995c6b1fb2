//! Sharding correctness + stress suite: a named operand's generation is row-sharded
//! into fixed 64-row bands (the shards its `DeployReport::{dirty_shards, total_shards}`
//! count), and executing those bands must be **bitwise identical** to executing the
//! whole operand's prepared series — across every backend, sparsity, shard count, ragged
//! last band, empty band, worker count, and the batched `submit` path — and its
//! telemetry must account every row and non-zero exactly once.
//!
//! Why bitwise (not approx) is the right bar: the greedy N:M decomposition constrains
//! blocks *along* rows and every GEMM kernel accumulates each output row's stored
//! entries in ascending-column order, so splitting rows into bands changes neither what
//! is computed nor the order it is accumulated in. Anything weaker would let sharding
//! silently change serving results.
//!
//! The worker-count test pins 1, 2, 4 and 8 executor workers with
//! `EngineBuilder::workers` (captured once at build time, so the engine is rebuilt per
//! setting); the pool threads are real on any host.

use proptest::prelude::*;
use std::sync::Arc;
use tasd::{ExecutionEngine, Generation, ServingError, TasdConfig, WeightStore, BAND_ROWS};
use tasd_tensor::backend::{CsrBackend, DenseBackend, NmBackend};
use tasd_tensor::{Matrix, MatrixGenerator};

/// The sparsity grid the acceptance criteria name.
const SPARSITIES: [f64; 4] = [0.0, 0.5, 0.9, 0.97];

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

/// `a` registered on a fresh store over `engine`, resolved.
fn generation(engine: &Arc<ExecutionEngine>, a: &Matrix, cfg: &TasdConfig) -> Arc<Generation> {
    let store = WeightStore::new(Arc::clone(engine));
    store.register("w", a.clone(), cfg.clone()).unwrap();
    store.resolve("w").unwrap()
}

/// The generation's answer to `b`, through the batched `submit` path.
fn banded(engine: &ExecutionEngine, generation: &Generation, b: &Matrix) -> Matrix {
    let mut responses = engine.submit(vec![generation.request(b.clone())]);
    responses.remove(0).output.expect("banded request")
}

/// The whole-operand reference on the same engine: one prepared series, executed whole.
fn whole(engine: &ExecutionEngine, a: &Matrix, cfg: &TasdConfig, b: &Matrix) -> Matrix {
    let prepared = engine.prepare_shared(&Arc::new(a.clone()), cfg);
    engine.series_gemm_prepared(&prepared, b).unwrap()
}

fn assert_banded_matches(
    label: &str,
    engine: &Arc<ExecutionEngine>,
    a: &Matrix,
    cfg: &TasdConfig,
    b: &Matrix,
) -> Arc<Generation> {
    let generation = generation(engine, a, cfg);
    assert_eq!(
        banded(engine, &generation, b),
        whole(engine, a, cfg, b),
        "{label}: a {}x{} generation must answer bitwise as its whole operand",
        a.rows(),
        a.cols()
    );
    generation
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random shapes (one to four bands, mostly ragged) × the sparsity grid, on the
    /// density-driven default engine.
    #[test]
    fn sharded_equals_unsharded_bitwise(
        m in 1usize..=200,
        k in 1usize..=64,
        width in 1usize..=8,
        sparsity_idx in 0usize..SPARSITIES.len(),
        seed in 0u64..u64::MAX,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let a = gen.sparse_normal(m, k, SPARSITIES[sparsity_idx]);
        let b = gen.normal(k, width, 0.0, 1.0);
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        let engine = Arc::new(ExecutionEngine::builder().build());
        assert_banded_matches("default engine", &engine, &a, &cfg, &b);
    }
}

/// The shard-count grid: row counts giving one ragged band, one full band, two bands
/// with a ragged tail, and three full bands plus a ragged 8-row one.
const ROW_COUNTS: [usize; 4] = [40, 64, 100, 200];

#[test]
fn every_backend_agrees_across_the_sparsity_and_shard_grids() {
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    for (label, engine) in engines() {
        let mut gen = MatrixGenerator::seeded(0x5A4D);
        for sparsity in SPARSITIES {
            for rows in ROW_COUNTS {
                let a = gen.sparse_normal(rows, 48, sparsity);
                let b = gen.normal(48, 6, 0.0, 1.0);
                let generation = assert_banded_matches(label, &engine, &a, &cfg, &b);
                assert_eq!(generation.bands().len(), rows.div_ceil(BAND_ROWS));
            }
        }
    }
}

#[test]
fn ragged_row_splits_cover_every_row() {
    // 130 rows: bands of 64, 64, and 2 rows.
    let mut gen = MatrixGenerator::seeded(0xA66ED);
    let a = gen.sparse_normal(130, 40, 0.9);
    let b = gen.normal(40, 5, 0.0, 1.0);
    let cfg = TasdConfig::parse("2:8").unwrap();
    let engine = Arc::new(ExecutionEngine::builder().build());
    let generation = assert_banded_matches("ragged", &engine, &a, &cfg, &b);
    let shapes: Vec<(usize, usize)> = generation.bands().iter().map(|s| s.shape()).collect();
    assert_eq!(shapes, vec![(BAND_ROWS, 40), (BAND_ROWS, 40), (2, 40)]);
}

#[test]
fn empty_shards_of_all_zero_row_blocks_are_exact() {
    // Rows 64..192 are all zero: the middle bands decompose to empty series and must
    // contribute exactly zero rows, bitwise.
    let mut gen = MatrixGenerator::seeded(0xE0);
    let mut a = gen.sparse_normal(256, 32, 0.5);
    for i in 64..192 {
        a.row_mut(i).fill(0.0);
    }
    let b = gen.normal(32, 4, 0.0, 1.0);
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    for (label, engine) in engines() {
        let generation = assert_banded_matches(label, &engine, &a, &cfg, &b);
        let nnz: Vec<usize> = generation.bands().iter().map(|s| s.nnz()).collect();
        assert!(
            nnz[0] > 0 && nnz[1] == 0 && nnz[2] == 0 && nnz[3] > 0,
            "{label}: {nnz:?}"
        );
    }
}

#[test]
fn telemetry_accounts_every_row_and_nonzero_exactly_once() {
    let mut gen = MatrixGenerator::seeded(0x7E1E);
    let a = gen.sparse_normal(300, 48, 0.8);
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let b = gen.normal(48, 6, 0.0, 1.0);
    let engine = Arc::new(ExecutionEngine::builder().build());
    let store = WeightStore::new(Arc::clone(&engine));
    let report = store.register("w", a.clone(), cfg.clone()).unwrap();
    let generation = store.resolve("w").unwrap();
    let whole = engine.prepare_shared(&Arc::new(a), &cfg);
    let shards = 300usize.div_ceil(BAND_ROWS);

    // The deploy report accounts every row and every band of a register.
    assert_eq!((report.dirty_rows, report.total_rows), (300, 300));
    assert_eq!((report.dirty_shards, report.total_shards), (shards, shards));
    assert_eq!(report.prepares, shards as u64, "one decomposition per band");

    // The bands cover every row once and hold every non-zero once.
    let rows: usize = generation.bands().iter().map(|s| s.shape().0).sum();
    let nnz: usize = generation.bands().iter().map(|s| s.nnz()).sum();
    assert_eq!(generation.bands().len(), shards);
    assert_eq!(rows, 300, "bands cover every row once");
    assert_eq!(
        nnz,
        whole.nnz(),
        "summed band nnz equals the operand's series nnz"
    );

    // The batch telemetry reports the banded request as one group.
    let (responses, telemetry) = engine.submit_with_telemetry(vec![generation.request(b)]);
    assert!(responses[0].output.is_ok());
    assert_eq!(telemetry.groups.len(), 1);
}

#[test]
fn warm_sharded_submit_never_converts_replans_or_rescans() {
    let mut gen = MatrixGenerator::seeded(0x5B);
    let a = gen.sparse_normal(128, 64, 0.9);
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let engine = Arc::new(ExecutionEngine::builder().build());
    let generation = generation(&engine, &a, &cfg);
    let prep_before = engine.prep_stats();
    let cache_before = engine.cache_stats();
    let requests = (0..6)
        .map(|_| generation.request(gen.normal(64, 3, 0.0, 1.0)))
        .collect();
    let (responses, telemetry) = engine.submit_with_telemetry(requests);
    assert!(responses.iter().all(|r| r.output.is_ok()));
    assert_eq!(telemetry.groups.len(), 1, "one generation, one group");
    assert_eq!(telemetry.decompositions, 0);
    let prep_after = engine.prep_stats();
    assert_eq!(
        prep_after, prep_before,
        "no prepare, plan, or fingerprint work at all"
    );
    let cache_after = engine.cache_stats();
    assert_eq!(
        (cache_after.hits, cache_after.misses),
        (cache_before.hits, cache_before.misses),
        "a banded request never consults the cache"
    );
}

#[test]
fn sharded_execution_is_worker_count_invariant() {
    // Ten bands, wide enough panels that every multi-worker engine runs them as one run
    // of bands per worker.
    let mut gen = MatrixGenerator::seeded(0xC0DE);
    let a = gen.sparse_normal(640, 128, 0.5);
    let b = gen.normal(128, 96, 0.0, 1.0);
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let mut baseline: Option<Matrix> = None;
    for workers in [1usize, 2, 4, 8] {
        let engine = Arc::new(ExecutionEngine::builder().workers(workers).build());
        let generation = assert_banded_matches("workers", &engine, &a, &cfg, &b);
        let c = banded(&engine, &generation, &b);
        assert_eq!(engine.pool_threads(), workers - 1, "{workers} workers");
        match &baseline {
            None => baseline = Some(c),
            Some(expected) => assert_eq!(expected, &c, "{workers} workers diverged"),
        }
    }
}

#[test]
fn zero_row_and_zero_width_edges_are_well_formed() {
    let engine = Arc::new(ExecutionEngine::builder().build());
    let cfg = TasdConfig::parse("2:8").unwrap();
    // Zero rows: no bands, empty output.
    let empty = generation(&engine, &Matrix::zeros(0, 16), &cfg);
    assert!(empty.bands().is_empty());
    assert_eq!(
        banded(&engine, &empty, &Matrix::zeros(16, 3)).shape(),
        (0, 3)
    );
    // Zero output width flows through every band.
    let mut gen = MatrixGenerator::seeded(1);
    let generation = generation(&engine, &gen.sparse_normal(100, 16, 0.5), &cfg);
    assert_eq!(
        banded(&engine, &generation, &Matrix::zeros(16, 0)).shape(),
        (100, 0)
    );
    // Shape mismatches are rejected at admission, not panicked on.
    let mut responses = engine.submit(vec![generation.request(Matrix::zeros(15, 2))]);
    assert!(matches!(
        responses.remove(0).output,
        Err(ServingError::ShapeMismatch { .. })
    ));
}
