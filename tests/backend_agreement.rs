//! Cross-backend agreement: every GEMM backend must compute the same product for the same
//! operand content, across the whole sparsity range (0.0–0.97), operand formats, and
//! random shapes.
//!
//! All backends accumulate each output element in ascending reduction order, so they
//! agree far beyond mere approximation: the only rounding difference the runtime SIMD
//! dispatch can introduce is the fused multiply-add of the AVX/FMA tiers (one rounding
//! per step instead of two), bounded per element by ~1 ulp per reduction step. The
//! agreement tolerance therefore scales as `1e-6 · k` with the reduction depth `k`.
//! (The engine's row tiling has its own bitwise differential suite:
//! `tests/parallel_stress.rs` and the engine's unit tests.)

use proptest::prelude::*;
use tasd::{ExecutionEngine, TasdConfig};
use tasd_tensor::backend::{CsrBackend, DenseBackend, GemmBackend, NmBackend};
use tasd_tensor::{gemm, CsrMatrix, Matrix, MatrixGenerator, NmCompressed, NmPattern};

/// The backends under test: the three kernel families.
fn backends() -> Vec<Box<dyn GemmBackend>> {
    vec![
        Box::new(DenseBackend::default()),
        Box::new(CsrBackend::default()),
        Box::new(NmBackend::default()),
    ]
}

fn run(backend: &dyn GemmBackend, lhs: &dyn tasd_tensor::GemmOperand, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(lhs.shape().0, b.cols());
    backend
        .gemm_into(lhs, b, &mut c)
        .expect("shapes are consistent");
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense, CSR, and N:M backends agree within 1e-6 per reduction step on
    /// seeded random matrices across sparsities 0.0–0.97, whatever format the operand
    /// arrives in. (The depth-scaled bound covers the FMA tiers' fused rounding; at the
    /// portable tier the kernels are bitwise-scalar — see `tests/simd_kernels.rs`.)
    #[test]
    fn all_backends_agree_on_all_formats(
        (rows, cols, n_cols) in (1usize..64, 1usize..96, 1usize..48),
        sparsity in 0.0f64..0.97,
        seed in 0u64..1_000,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let a = gen.sparse_normal(rows, cols, sparsity);
        let b = gen.normal(cols, n_cols, 0.0, 1.0);
        let csr = CsrMatrix::from_dense(&a);
        // The N:M operand uses the 2:8 view of `a` (its own content, shared by all
        // backends below).
        let pattern = NmPattern::new(2, 8).unwrap();
        let view = pattern.view(&a);
        let nm = NmCompressed::from_dense_strict(&view, pattern).unwrap();

        let dense_reference = gemm(&a, &b).unwrap();
        let view_reference = gemm(&view, &b).unwrap();
        // 1e-6 per reduction step: the FMA tiers' fused rounding differs from the
        // scalar reference by at most ~1 ulp per accumulated term.
        let tol = 1e-6 * cols as f32;
        for backend in backends() {
            let name = backend.name();
            prop_assert!(
                run(backend.as_ref(), &a, &b).approx_eq(&dense_reference, tol),
                "{name} diverged on a dense operand ({rows}x{cols}, sparsity {sparsity:.2})"
            );
            prop_assert!(
                run(backend.as_ref(), &csr, &b).approx_eq(&dense_reference, tol),
                "{name} diverged on a CSR operand ({rows}x{cols}, sparsity {sparsity:.2})"
            );
            prop_assert!(
                run(backend.as_ref(), &nm, &b).approx_eq(&view_reference, tol),
                "{name} diverged on an N:M operand ({rows}x{cols}, sparsity {sparsity:.2})"
            );
        }
    }

    /// The engine's full planned path (decompose → per-term backend choice → execute)
    /// matches the reference GEMM of the series reconstruction, regardless of which
    /// backends the plan picked.
    #[test]
    fn engine_execution_matches_reconstruction_reference(
        (rows, cols) in (1usize..48, 1usize..64),
        sparsity in 0.0f64..0.97,
        seed in 0u64..1_000,
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let a = gen.sparse_normal(rows, cols, sparsity);
        let b = gen.normal(cols, 16, 0.0, 1.0);
        let engine = ExecutionEngine::global();
        let series = engine.decompose(&a, &TasdConfig::parse("4:8+2:8").unwrap());
        let via_engine = engine.series_gemm(&series, &b).unwrap();
        let reference = gemm(&series.reconstruct(), &b).unwrap();
        prop_assert!(
            via_engine.approx_eq(&reference, 1e-4),
            "engine path diverged ({rows}x{cols}, sparsity {sparsity:.2})"
        );
    }
}
