//! Property-based tests (proptest) over the core data structures and the decomposition
//! invariants that every other result in this repository relies on.

use proptest::prelude::*;
use tasd::{decompose, decompose_with_residual, series_gemm, TasdConfig};
use tasd_tensor::{
    dropped_magnitude_fraction, dropped_nonzero_fraction, gemm, CsrMatrix, Matrix, MatrixGenerator,
    NmCompressed, NmPattern,
};

/// Strategy: a random matrix described by (rows, cols, sparsity, seed).
fn matrix_params() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (1usize..40, 1usize..48, 0.0f64..0.97, 0u64..1_000)
}

/// Strategy: a random valid N:M pattern with M in {2,4,8,16}.
fn pattern() -> impl Strategy<Value = NmPattern> {
    (0usize..4).prop_flat_map(|mi| {
        let m = [2usize, 4, 8, 16][mi];
        (1usize..=m).prop_map(move |n| NmPattern::new(n, m).expect("valid"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nm_view_always_satisfies_its_pattern(
        (rows, cols, sparsity, seed) in matrix_params(),
        p in pattern(),
    ) {
        let a = MatrixGenerator::seeded(seed).sparse_normal(rows, cols, sparsity);
        let view = p.view(&a);
        prop_assert!(p.is_satisfied_by(&view));
        // The view never introduces values that were not in the original.
        for (orig, kept) in a.iter().zip(view.iter()) {
            prop_assert!(*kept == 0.0 || *kept == *orig);
        }
    }

    #[test]
    fn view_plus_residual_reconstructs_exactly(
        (rows, cols, sparsity, seed) in matrix_params(),
        p in pattern(),
    ) {
        let a = MatrixGenerator::seeded(seed).sparse_normal(rows, cols, sparsity);
        let view = p.view(&a);
        let (series, residual) = decompose_with_residual(&a, &TasdConfig::single(p));
        prop_assert_eq!(series.num_terms(), 1);
        prop_assert_eq!(series.terms()[0].to_dense(), view.clone());
        prop_assert_eq!(view.try_add(&residual).unwrap(), a);
    }

    #[test]
    fn compressed_round_trip_is_lossless(
        (rows, cols, sparsity, seed) in matrix_params(),
        p in pattern(),
    ) {
        let a = MatrixGenerator::seeded(seed).sparse_normal(rows, cols, sparsity);
        let view = p.view(&a);
        let compressed = NmCompressed::from_dense_strict(&view, p).unwrap();
        compressed.validate().unwrap();
        prop_assert_eq!(compressed.to_dense(), view);
        let csr = CsrMatrix::from_dense(&a);
        csr.validate().unwrap();
        prop_assert_eq!(csr.to_dense(), a);
    }

    #[test]
    fn decomposition_terms_partition_the_kept_values(
        (rows, cols, sparsity, seed) in matrix_params(),
    ) {
        let a = MatrixGenerator::seeded(seed).sparse_normal(rows, cols, sparsity);
        let config = TasdConfig::parse("2:4+2:8").unwrap();
        let (series, residual) = decompose_with_residual(&a, &config);
        // Reconstruction + residual is exact.
        let sum = series.reconstruct().try_add(&residual).unwrap();
        prop_assert!(sum.approx_eq(&a, 1e-6));
        // Kept non-zeros + dropped non-zeros = original non-zeros.
        prop_assert_eq!(series.nnz() + residual.count_nonzeros(), a.count_nonzeros());
        // Greedy extraction: dropped magnitude fraction <= dropped count fraction.
        let approx = series.reconstruct();
        prop_assert!(
            dropped_magnitude_fraction(&a, &approx)
                <= dropped_nonzero_fraction(&a, &approx) + 1e-9
        );
    }

    #[test]
    fn adding_terms_never_increases_gemm_error(
        (rows, cols, sparsity, seed) in matrix_params(),
    ) {
        let mut gen = MatrixGenerator::seeded(seed);
        let a = gen.sparse_normal(rows, cols, sparsity);
        let b = gen.normal(cols, 8, 0.0, 1.0);
        let exact = gemm(&a, &b).unwrap();
        let exact_norm = tasd_tensor::frobenius_norm(&exact);
        let mut last_err = f64::INFINITY;
        for cfg in ["2:8", "2:8+2:8", "2:8+2:8+2:8"] {
            let series = decompose(&a, &TasdConfig::parse(cfg).unwrap());
            let approx = series_gemm(&series, &b).unwrap();
            let diff = exact.try_sub(&approx).unwrap();
            let err = tasd_tensor::frobenius_norm(&diff);
            // Compare absolute error norms (relative error is undefined when exact == 0).
            prop_assert!(err <= last_err + 1e-4 * (1.0 + exact_norm));
            last_err = err;
        }
    }

    #[test]
    fn kept_density_bounds_stored_values(
        (rows, cols, sparsity, seed) in matrix_params(),
        p in pattern(),
    ) {
        let a = MatrixGenerator::seeded(seed).sparse_normal(rows, cols, sparsity);
        let config = TasdConfig::single(p);
        let series = decompose(&a, &config);
        let max_allowed = p.max_nonzeros(rows, cols);
        prop_assert!(series.nnz() <= max_allowed);
        prop_assert!(series.nnz() <= a.count_nonzeros());
    }

    #[test]
    fn config_parsing_round_trips(n in 1usize..16, m_exp in 1u32..5, extra in 0usize..3) {
        let m = 2usize.pow(m_exp);
        let n = n.min(m);
        let mut s = format!("{n}:{m}");
        for _ in 0..extra {
            s.push_str(&format!("+{}:{}", n.min(m), m));
        }
        let cfg = TasdConfig::parse(&s).unwrap();
        prop_assert_eq!(cfg.to_string(), s);
        prop_assert_eq!(cfg.order(), extra + 1);
    }

    #[test]
    fn matrix_transpose_involution_and_gemm_shapes(
        (rows, cols, sparsity, seed) in matrix_params(),
    ) {
        let a = MatrixGenerator::seeded(seed).sparse_normal(rows, cols, sparsity);
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let id = Matrix::identity(cols);
        prop_assert!(gemm(&a, &id).unwrap().approx_eq(&a, 1e-5));
    }
}
