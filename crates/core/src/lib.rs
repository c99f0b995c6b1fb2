//! # tasd — Tensor Approximation via Structured Decomposition
//!
//! This crate is the primary contribution of the reproduced paper
//! *"Enabling Unstructured Sparse Acceleration on Structured Sparse Accelerators"*
//! (MLSys 2025): a method that approximates **any** sparse (or even dense) tensor `A` with
//! a series of N:M structured sparse tensors,
//!
//! ```text
//! A  ≃  A₁^{s₁} + A₂^{s₂} + … + Aₙ^{sₙ}
//! ```
//!
//! where each term is extracted greedily — keep the largest-magnitude elements per
//! M-element block — from the running residual. Because matrix algebra distributes over
//! addition, `A·B` can then be executed as a sum of *structured* sparse GEMMs, each of
//! which a structured sparse accelerator (2:4 sparse tensor core, VEGETA-style N:8 engine)
//! supports natively.
//!
//! The crate provides:
//!
//! * [`TasdConfig`] — a decomposition configuration: an ordered list of N:M patterns.
//! * [`decompose`] / [`TasdSeries`] — the greedy structured decomposition and the resulting
//!   series of compressed terms, with reconstruction and error metrics.
//! * [`ExecutionEngine`] — the unified execution layer: plans a
//!   [`GemmBackend`](tasd_tensor::GemmBackend) per term from density, caches
//!   decompositions in an LRU keyed by (matrix fingerprint, config), and executes series
//!   GEMMs term-by-term. [`series_gemm`] is a thin wrapper over the default engine.
//! * [`ServingEngine`] — the async, session-based serving front-end over one shared
//!   engine: enqueue requests, coalesce them into micro-batch windows, collect results
//!   through [`ResponseHandle`]s (see the `tasd::engine` module docs' serving-session
//!   lifecycle).
//! * [`WeightStore`] / [`load_snapshot`] — the deploy lifecycle: named operands that own
//!   their prepared 64-row bands, with atomic generation swaps (push new weights under
//!   live traffic, re-preparing only dirty bands) and store persistence (a restarted
//!   server re-registers the same weights with zero decompositions). See the
//!   `tasd::engine` module docs' "Deploy lifecycle" section.
//! * [`compose`] — the pattern-composition algebra (paper Table 2): which effective N:M
//!   patterns a piece of hardware supports once TASD chaining is allowed.
//! * [`analysis`] — the synthetic-data studies of the paper's Appendix A (drop fractions vs
//!   density, matmul error vs approximated sparsity).
//!
//! # Quickstart
//!
//! Decompose once (cached), execute many times through the engine:
//!
//! ```
//! use tasd::{ExecutionEngine, TasdConfig};
//! use tasd_tensor::{gemm, relative_frobenius_error, MatrixGenerator};
//!
//! let engine = ExecutionEngine::builder()
//!     .cache_capacity(64)   // decompositions memoized by (fingerprint, config)
//!     .workers(2)           // big matmuls tile output rows across two workers
//!     .build();
//!
//! let mut gen = MatrixGenerator::seeded(0);
//! let a = gen.sparse_normal(64, 64, 0.7);             // unstructured 70% sparse
//! let b = gen.normal(64, 32, 0.0, 1.0);
//! let config = TasdConfig::parse("2:4+2:8").unwrap(); // two structured terms
//!
//! // Decompose + execute; the second call to decompose() is a cache hit.
//! let series = engine.decompose(&a, &config);
//! let c = engine.series_gemm(&series, &b).unwrap();
//! assert!(engine.decompose(&a, &config).nnz() == series.nnz());
//! assert_eq!(engine.cache_stats().hits, 1);
//!
//! // The plan explains how each structured term will execute.
//! let plan = engine.plan_series(&series, b.cols());
//! assert!(plan.num_terms() <= config.order());
//!
//! let exact = gemm(&a, &b).unwrap();
//! assert!(relative_frobenius_error(&exact, &c) < 0.3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod compose;
pub mod config;
pub mod decompose;
pub mod engine;
pub mod series;

pub use compose::{compose_pattern_table, ComposedPattern, PatternMenu};
pub use config::TasdConfig;
pub use decompose::{decompose, decompose_with_residual};
pub use engine::{
    load_snapshot, save_snapshot, BackendKind, BackendTable, BatchRequest, BatchResponse,
    BatchTelemetry, CacheEntryStats, CacheStats, Clock, DecompositionCache, DeployError,
    DeployReport, DispatcherHandle, EngineBuilder, ExecutionEngine, FaultKind, FaultPlan,
    FaultRecord, FaultSite, FaultyBackend, Generation, GroupTelemetry, LatchedBackend, LoadOutcome,
    MatmulPlan, MockClock, MonotonicClock, OverloadPolicy, PrepStats, PreparedSeries, PreparedTerm,
    ResponseHandle, ServingEngine, ServingError, ServingStats, SnapshotStats, TermPlan,
    WeightStore, BAND_ROWS,
};
pub use series::{series_gemm, series_gemm_into, DecompositionReport, TasdSeries};

/// Result alias re-exported from the tensor substrate.
pub type Result<T> = tasd_tensor::Result<T>;
