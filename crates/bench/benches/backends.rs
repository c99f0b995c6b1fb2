//! Backend comparison on a 512×512×512 GEMM at 50% and 90% sparsity, plus the per-term
//! kernel sweep that populates the engine's `BackendTable`.
//!
//! This bench grounds the execution engine's backend-choice lookup
//! (`tasd::BackendTable::MEASURED`) in measured numbers. Two sections:
//!
//! * **whole-operand kernels** — the original comparison: scalar reference, blocked
//!   dense, CSR, and N:M on the same 512³ GEMM, plus the engine's planned path on one
//!   worker (`engine_gemm_workers1`) and with its default executor row tiling
//!   (`engine_gemm_tiled`);
//! * **term kernels** — the prepared-operand question: take an actual decomposed TASD
//!   term (2:8 of a 50%/90%-sparse operand) and execute the *same content* through the
//!   native N:M kernel, the CSR kernel (CSR-packed), and the blocked dense kernel
//!   (dense-packed). The winner per (density, shape) bucket is what
//!   `BackendTable::MEASURED` encodes — e.g. CSR-packing wins ~1.25× at density ≈ 0.10
//!   on serving-sized terms, while mid-density terms stay N:M.
//!
//! Every measurement is recorded to `BENCH_backends.json` at the repository root
//! (`{name, config, ns_per_iter}`, plus `gflops` computed from the *effectual* flop
//! count `2 · nnz · n_cols` for the single-kernel entries), so planner constants can be
//! re-derived on new hardware — and kernel throughput tracked across PRs — by re-running
//! this bench.
//!
//! Run with: `cargo bench --bench backends` (append `-- --test` for the smoke mode).

use criterion::{criterion_group, criterion_main, Criterion};
use tasd::{ExecutionEngine, TasdConfig};
use tasd_bench::bench_json::BenchRecorder;
use tasd_tensor::backend::{CsrBackend, DenseBackend, GemmBackend, GemmOperand, NmBackend};
use tasd_tensor::{gemm, CsrMatrix, Matrix, MatrixGenerator, NmCompressed, NmPattern};

const SIZE: usize = 512;

/// One kernel execution into a reused, re-zeroed output buffer. Reusing `c` keeps every
/// kernel entry's working set at the same addresses — fresh per-iteration allocations
/// land on different pages depending on how much heap churn preceded the entry, which
/// skews cross-kernel comparisons by more than the margins the planner tables care
/// about (the memset is identical work for every entry, so ratios stay comparable).
fn run_backend(backend: &dyn GemmBackend, a: &dyn GemmOperand, b: &Matrix, c: &mut Matrix) {
    let rows = a.shape().0;
    c.rows_slice_mut(0, rows).fill(0.0);
    backend
        .gemm_into(std::hint::black_box(a), std::hint::black_box(b), c)
        .unwrap();
    std::hint::black_box(&*c);
}

fn bench_whole_operand(rec: &mut BenchRecorder, sparsity: f64) {
    let label = format!("512x512x512 s{:02.0}", sparsity * 100.0);

    let mut gen = MatrixGenerator::seeded(0x5EED);
    let a = gen.sparse_normal(SIZE, SIZE, sparsity);
    let b = gen.normal(SIZE, SIZE, 0.0, 1.0);
    let csr = CsrMatrix::from_dense(&a);
    // Structured operand: the 4:8 view of `a` (content differs from `a`; this measures
    // the native compressed kernel's throughput at the same logical shape).
    let pattern = NmPattern::new(4, 8).unwrap();
    let nm = NmCompressed::from_dense(&a, pattern).unwrap();

    // Effectual work: skipped zeros are not useful flops, so throughput is comparable
    // across sparsity levels.
    let flops = 2 * GemmOperand::nnz(&a) as u64 * b.cols() as u64;
    let nm_flops = 2 * GemmOperand::nnz(&nm) as u64 * b.cols() as u64;

    // One output buffer shared by every kernel entry below (see `run_backend`).
    let mut c = Matrix::zeros(SIZE, SIZE);

    // The seed's scalar i-k-j kernel, as the fixed reference point.
    rec.measure_flops("scalar_gemm_reference", &label, flops, || {
        gemm(std::hint::black_box(&a), std::hint::black_box(&b)).unwrap()
    });
    let dense = DenseBackend::default();
    rec.measure_flops("dense_blocked", &label, flops, || {
        run_backend(&dense, &a, &b, &mut c)
    });
    let csr_backend = CsrBackend::default();
    rec.measure_flops("csr", &label, flops, || {
        run_backend(&csr_backend, &csr, &b, &mut c)
    });
    // The generic entry-iteration fallback (CSR backend over dense storage): the cost
    // prepared execution avoids — measured, not assumed.
    rec.measure_flops("csr_on_dense_operand", &label, flops, || {
        run_backend(&csr_backend, &a, &b, &mut c)
    });
    let nm_backend = NmBackend::default();
    rec.measure_flops("nm_4_8", &label, nm_flops, || {
        run_backend(&nm_backend, &nm, &b, &mut c)
    });
    // The engine's planned path for the same dense-stored operand: one worker (every
    // kernel whole, on the caller) against the default executor, which tiles the
    // output rows over its resident workers.
    for (name, engine) in [
        (
            "engine_gemm_workers1",
            ExecutionEngine::builder().workers(1).build(),
        ),
        ("engine_gemm_tiled", ExecutionEngine::builder().build()),
    ] {
        rec.measure_flops(name, &label, flops, || {
            c.rows_slice_mut(0, SIZE).fill(0.0);
            engine
                .gemm_into(std::hint::black_box(&a), std::hint::black_box(&b), &mut c)
                .unwrap();
            std::hint::black_box(&c);
        });
    }

    // The engine's automatic path end-to-end: planned backends over a lossless two-term
    // series (4:8+4:8 covers every element, so the math matches the dense GEMM).
    let engine = ExecutionEngine::builder().build();
    let prepared = engine.prepare(&a, &TasdConfig::parse("4:8+4:8").unwrap());
    rec.measure("engine_series_4_8x2", &label, || {
        engine
            .series_gemm_prepared(std::hint::black_box(&prepared), std::hint::black_box(&b))
            .unwrap()
    });
}

/// The prepared-term sweep: one decomposed TASD term, three packings, same content —
/// the measurement `BackendTable::MEASURED` is populated from.
fn bench_term_kernels(rec: &mut BenchRecorder, sparsity: f64, m: usize, k: usize, n_cols: usize) {
    let mut gen = MatrixGenerator::seeded(0x7E21);
    let a = gen.sparse_normal(m, k, sparsity);
    let b = gen.normal(k, n_cols, 0.0, 1.0);
    // The first term of the serving config: what the engine actually executes.
    let term = tasd::decompose(&a, &TasdConfig::parse("2:8").unwrap())
        .terms()
        .first()
        .expect("non-empty decomposition")
        .clone();
    let density = GemmOperand::density(&term);
    let label = format!(
        "term {m}x{k} n={n_cols} density={density:.3} (from s{:02.0} 2:8)",
        sparsity * 100.0
    );

    let flops = 2 * GemmOperand::nnz(&term) as u64 * n_cols as u64;
    let mut c = Matrix::zeros(m, n_cols);
    let nm_backend = NmBackend::default();
    let t_nm = rec.measure_flops("term_nm_native", &label, flops, || {
        run_backend(&nm_backend, &term, &b, &mut c)
    });
    let csr_packed = term.to_csr();
    let csr_backend = CsrBackend::default();
    let t_csr = rec.measure_flops("term_csr_packed", &label, flops, || {
        run_backend(&csr_backend, &csr_packed, &b, &mut c)
    });
    let dense_packed = term.to_dense();
    let dense_backend = DenseBackend::default();
    rec.measure_flops("term_dense_packed", &label, flops, || {
        run_backend(&dense_backend, &dense_packed, &b, &mut c)
    });
    println!(
        "  -> csr/nm speedup at density {density:.3}: {:.2}x",
        t_nm.as_secs_f64() / t_csr.as_secs_f64()
    );
}

fn bench_backends(c: &mut Criterion) {
    let mut rec = BenchRecorder::new("backends", 10);
    for sparsity in [0.5, 0.9] {
        bench_whole_operand(&mut rec, sparsity);
    }
    // Term sweep on the serving geometry (256×512, the serving bench's operand) and the
    // square 512³ shape, at the low- and mid-density regimes the table distinguishes.
    for sparsity in [0.9, 0.5] {
        bench_term_kernels(&mut rec, sparsity, 256, 512, 256);
        bench_term_kernels(&mut rec, sparsity, SIZE, SIZE, SIZE);
    }
    rec.write().expect("BENCH_backends.json must be writable");
    let _ = c; // criterion harness entry kept for CLI compatibility (`-- --test`).
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
