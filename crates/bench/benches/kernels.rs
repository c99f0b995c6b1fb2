//! Criterion micro-benchmarks for the TASD kernels: structured decomposition (cold vs
//! engine-cached), and GEMM over the unified backend layer — every kernel dispatches
//! through the [`GemmBackend`] trait, exactly as production call sites do.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tasd::{ExecutionEngine, TasdConfig};
use tasd_tensor::backend::{CsrBackend, DenseBackend, GemmBackend, NmBackend};
use tasd_tensor::{CsrMatrix, Matrix, MatrixGenerator, NmCompressed, NmPattern};

fn bench_decomposition(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    group.sample_size(20);
    let mut gen = MatrixGenerator::seeded(1);
    let a = gen.sparse_normal(256, 256, 0.8);
    for cfg in ["2:4", "2:4+2:8", "4:8+2:8+1:8"] {
        let config = TasdConfig::parse(cfg).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(cfg), &config, |b, config| {
            b.iter(|| tasd::decompose(std::hint::black_box(&a), config));
        });
    }
    // TASD-A's serving shape: a ReLU activation tile (about half zeros) under 4:8, as
    // every fresh-activation request decomposes it.
    let relu_tile = gen.normal(256, 1152, 0.0, 1.0).map(|x| x.max(0.0));
    let config = TasdConfig::parse("4:8").unwrap();
    group.bench_function("relu_tile_256x1152_4:8", |b| {
        b.iter(|| tasd::decompose(std::hint::black_box(&relu_tile), &config));
    });
    // TASD-W's deploy shape: Sparse BERT's FFN fc1 weight, magnitude-pruned to 91%,
    // under the 2:8+1:8 series a registration or a whole-operand push prepares.
    let fc1 = gen.magnitude_pruned(3072, 768, 0.91);
    let config = TasdConfig::parse("2:8+1:8").unwrap();
    group.bench_function("bert_fc1_3072x768_2:8+1:8", |b| {
        b.iter(|| tasd::decompose(std::hint::black_box(&fc1), &config));
    });
    // The engine path: after the first (cold) call every iteration is a cache hit, which
    // is the serving-path behaviour the DecompositionCache exists for.
    let engine = ExecutionEngine::builder().build();
    let config = TasdConfig::parse("2:4+2:8").unwrap();
    group.bench_function("engine_cached_2:4+2:8", |b| {
        b.iter(|| engine.decompose(std::hint::black_box(&a), &config));
    });
    group.finish();
}

fn bench_gemm_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_256");
    group.sample_size(20);
    let mut gen = MatrixGenerator::seeded(2);
    let a = gen.sparse_normal(256, 256, 0.9);
    let b = gen.normal(256, 64, 0.0, 1.0);
    let pattern = NmPattern::new(2, 8).unwrap();
    let nm = NmCompressed::from_dense(&a, pattern).unwrap();
    let csr = CsrMatrix::from_dense(&a);
    let engine = ExecutionEngine::builder().build();
    let series = engine.decompose(&a, &TasdConfig::parse("4:8+1:8").unwrap());

    let dense = DenseBackend::default();
    group.bench_function("dense_backend", |bench| {
        bench.iter(|| {
            let mut c_out = Matrix::zeros(a.rows(), b.cols());
            dense
                .gemm_into(
                    std::hint::black_box(&a),
                    std::hint::black_box(&b),
                    &mut c_out,
                )
                .unwrap();
            c_out
        });
    });
    let nm_backend = NmBackend::default();
    group.bench_function("nm_2_8_backend", |bench| {
        bench.iter(|| {
            let mut c_out = Matrix::zeros(nm.rows(), b.cols());
            nm_backend
                .gemm_into(
                    std::hint::black_box(&nm),
                    std::hint::black_box(&b),
                    &mut c_out,
                )
                .unwrap();
            c_out
        });
    });
    let csr_backend = CsrBackend::default();
    group.bench_function("csr_backend", |bench| {
        bench.iter(|| {
            let mut c_out = Matrix::zeros(csr.rows(), b.cols());
            csr_backend
                .gemm_into(
                    std::hint::black_box(&csr),
                    std::hint::black_box(&b),
                    &mut c_out,
                )
                .unwrap();
            c_out
        });
    });
    group.bench_function("engine_series_gemm_4_8_plus_1_8", |bench| {
        bench.iter(|| {
            engine
                .series_gemm(std::hint::black_box(&series), std::hint::black_box(&b))
                .unwrap()
        });
    });
    group.finish();
}

fn bench_nm_view(c: &mut Criterion) {
    let mut group = c.benchmark_group("nm_view_512");
    group.sample_size(20);
    let a = MatrixGenerator::seeded(3).normal(512, 512, 0.0, 1.0);
    for m in [4usize, 8, 16] {
        let pattern = NmPattern::new(m / 2, m).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(m), &pattern, |bench, p| {
            bench.iter(|| p.view(std::hint::black_box(&a)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decomposition,
    bench_gemm_kernels,
    bench_nm_view
);
criterion_main!(benches);
