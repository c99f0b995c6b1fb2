//! Multi-thread stress tests for the engine's row tiling on its resident executor.
//!
//! A GEMM whose plan estimates at least 2²¹ MACs gives each executor worker one
//! contiguous block of output rows and runs every term of that block in one job. Each
//! output row accumulates the same terms in the same order however the rows are split,
//! so these tests demand **bitwise** equality between `.workers(1)` — the sequential
//! engine — and `.workers(w)` on every execution path, plus the pool contract: tiling
//! spawns the executor's `workers − 1` threads once, never per call.
//!
//! Worker counts are pinned with `EngineBuilder::workers`, so the pool threads are real
//! on any host, a single-CPU one included.

use proptest::prelude::*;
use std::sync::Arc;
use tasd::{BatchRequest, ExecutionEngine, TasdConfig};
use tasd_tensor::{Matrix, MatrixGenerator};

fn outputs(engine: &ExecutionEngine, requests: Vec<BatchRequest>) -> Vec<Matrix> {
    engine
        .submit(requests)
        .into_iter()
        .map(|r| r.output.unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Above the tiling threshold, a `w`-worker engine agrees bitwise with the
    /// sequential engine through `series_gemm_prepared`, raw `series_gemm`, dense
    /// `gemm`, and `submit` (one decomposed and one dense group).
    #[test]
    fn tiled_paths_are_bitwise_identical_to_sequential(
        m in 200usize..=320,
        workers in 2usize..=8,
        sparsity in 0.3f64..0.6,
        seed in 0u64..1_000,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let a = Arc::new(gen.sparse_normal(m, 512, sparsity));
        let b = gen.normal(512, 96, 0.0, 1.0);
        let cfg = TasdConfig::parse("2:8+1:8").unwrap();
        let sequential = ExecutionEngine::builder().workers(1).build();
        let tiled = ExecutionEngine::builder().workers(workers).build();

        let prepared = tiled.prepare_shared(&a, &cfg);
        // Every path below must actually take the tiled branch.
        prop_assert!(tiled.plan_prepared(&prepared, b.cols()).parallel);
        prop_assert!(tiled.plan_series(prepared.series(), b.cols()).parallel);
        prop_assert!(tiled.plan_gemm(&a, b.cols()).parallel);
        prop_assert!(!sequential.plan_gemm(&a, b.cols()).parallel);

        let reference = sequential.prepare_shared(&a, &cfg);
        prop_assert_eq!(
            tiled.series_gemm_prepared(&prepared, &b).unwrap(),
            sequential.series_gemm_prepared(&reference, &b).unwrap()
        );
        prop_assert_eq!(
            tiled.series_gemm(prepared.series(), &b).unwrap(),
            sequential.series_gemm(reference.series(), &b).unwrap()
        );
        prop_assert_eq!(tiled.gemm(&a, &b).unwrap(), sequential.gemm(&a, &b).unwrap());
        let requests = vec![
            BatchRequest::decomposed(Arc::clone(&a), cfg.clone(), b.clone()),
            BatchRequest::dense(Arc::clone(&a), b.clone()),
        ];
        prop_assert_eq!(outputs(&tiled, requests.clone()), outputs(&sequential, requests));
        prop_assert_eq!(tiled.pool_threads(), workers - 1);
    }
}

#[test]
fn fifty_large_gemms_spawn_the_pool_once() {
    let workers = 3;
    let engine = ExecutionEngine::builder().workers(workers).build();
    let mut gen = MatrixGenerator::seeded(0x7115);
    let a = gen.sparse_normal(256, 512, 0.5);
    let b = gen.normal(512, 64, 0.0, 1.0);
    let prepared = engine.prepare(&a, &TasdConfig::parse("4:8").unwrap());
    assert!(engine.plan_gemm(&a, b.cols()).parallel);
    assert!(engine.plan_prepared(&prepared, b.cols()).parallel);
    assert_eq!(engine.pool_threads(), 0, "the pool is lazy");
    for i in 0..50 {
        if i % 2 == 0 {
            engine.gemm(&a, &b).unwrap();
        } else {
            engine.series_gemm_prepared(&prepared, &b).unwrap();
        }
        assert_eq!(
            engine.pool_threads(),
            workers - 1,
            "GEMM {i}: row tiles run on the resident pool, never on fresh threads"
        );
    }
}

#[test]
fn engine_submit_is_thread_count_invariant() {
    // The serving path on top: the same batch must produce identical responses at 1, 4,
    // and 8 workers (the engine plans the tiling, the tiling must not change math).
    let mut gen = MatrixGenerator::seeded(0xD15C);
    let a = Arc::new(gen.sparse_normal(256, 512, 0.8));
    let cfg = TasdConfig::parse("2:8+1:8").unwrap();
    let requests: Vec<BatchRequest> = (0..8)
        .map(|_| {
            BatchRequest::decomposed(Arc::clone(&a), cfg.clone(), gen.normal(512, 16, 0.0, 1.0))
        })
        .collect();
    let mut baseline: Option<Vec<Matrix>> = None;
    for workers in [1usize, 4, 8] {
        let engine = ExecutionEngine::builder().workers(workers).build();
        // The batch is one group of 8 × 16 packed columns: large enough to tile.
        let prepared = engine.prepare_shared(&a, &cfg);
        assert_eq!(engine.plan_prepared(&prepared, 128).parallel, workers > 1);
        let outputs = outputs(&engine, requests.clone());
        match &baseline {
            None => baseline = Some(outputs),
            Some(expected) => assert_eq!(expected, &outputs, "{workers} workers diverged"),
        }
    }
}
