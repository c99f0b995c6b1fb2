//! The TASD series: a sum of compressed structured terms, and GEMM over it.

use crate::config::TasdConfig;
use tasd_tensor::{
    dropped_magnitude_fraction, dropped_nonzero_fraction, relative_frobenius_error, Matrix,
    NmCompressed, Result,
};

/// A decomposed tensor: an ordered list of N:M compressed terms whose sum approximates the
/// original matrix.
///
/// Produced by [`crate::decompose`]; consumed by [`series_gemm`] (software execution) and by
/// the accelerator model (which costs each structured term separately).
#[derive(Debug, Clone, PartialEq)]
pub struct TasdSeries {
    shape: (usize, usize),
    config: TasdConfig,
    terms: Vec<NmCompressed>,
}

impl TasdSeries {
    /// Assembles a series from its parts. Normally you want [`crate::decompose`] instead.
    pub fn new(shape: (usize, usize), config: TasdConfig, terms: Vec<NmCompressed>) -> Self {
        TasdSeries {
            shape,
            config,
            terms,
        }
    }

    /// Shape of the original (and reconstructed) matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// The configuration this series was produced with.
    pub fn config(&self) -> &TasdConfig {
        &self.config
    }

    /// The compressed structured terms, in order.
    pub fn terms(&self) -> &[NmCompressed] {
        &self.terms
    }

    /// Number of terms actually materialized (may be fewer than the configuration's order
    /// when the residual emptied early).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total non-zeros stored across all terms.
    pub fn nnz(&self) -> usize {
        self.terms.iter().map(NmCompressed::nnz).sum()
    }

    /// Reconstructs the (approximate) dense matrix `Σᵢ Aᵢ`.
    pub fn reconstruct(&self) -> Matrix {
        let mut out = Matrix::zeros(self.shape.0, self.shape.1);
        for term in &self.terms {
            let dense = term.to_dense();
            out = out.try_add(&dense).expect("terms share the series shape");
        }
        out
    }

    /// Total effectual MACs of `self * B` where `B` has `n_cols` columns: one MAC per
    /// stored value per output column, summed over terms.
    pub fn effectual_macs(&self, n_cols: usize) -> u64 {
        self.terms.iter().map(|t| t.effectual_macs(n_cols)).sum()
    }

    /// Compressed storage footprint in bytes across all terms.
    pub fn storage_bytes(&self) -> usize {
        self.terms.iter().map(NmCompressed::storage_bytes).sum()
    }

    /// Builds the quality report of this series against the original matrix it was
    /// decomposed from.
    ///
    /// # Panics
    ///
    /// Panics if `original` has a different shape from the series.
    pub fn report(&self, original: &Matrix) -> DecompositionReport {
        assert_eq!(
            original.shape(),
            self.shape,
            "report requires the original matrix"
        );
        let approx = self.reconstruct();
        DecompositionReport {
            config: self.config.clone(),
            original_nonzeros: original.count_nonzeros(),
            kept_nonzeros: self.nnz(),
            dropped_nonzero_fraction: dropped_nonzero_fraction(original, &approx),
            dropped_magnitude_fraction: dropped_magnitude_fraction(original, &approx),
            relative_frobenius_error: relative_frobenius_error(original, &approx),
        }
    }
}

/// Quality metrics of a decomposition relative to the original matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionReport {
    /// Configuration used.
    pub config: TasdConfig,
    /// Non-zeros in the original matrix.
    pub original_nonzeros: usize,
    /// Non-zeros kept across all series terms.
    pub kept_nonzeros: usize,
    /// Fraction of original non-zeros that were dropped (paper Fig. 17 left axis).
    pub dropped_nonzero_fraction: f64,
    /// Fraction of original total magnitude that was dropped (paper Fig. 17 right axis).
    pub dropped_magnitude_fraction: f64,
    /// `||A - Â||_F / ||A||_F`.
    pub relative_frobenius_error: f64,
}

/// Approximated matrix multiplication `C ≈ A·B` executed term-by-term over a decomposed
/// `A` (paper §3.2): `C = Σᵢ Aᵢ·B`, each term a structured sparse GEMM.
///
/// This is a thin back-compat wrapper over the process-wide
/// [`ExecutionEngine`](crate::ExecutionEngine): each term dispatches through the planned
/// [`GemmBackend`](tasd_tensor::GemmBackend), never to a format-specific kernel directly.
/// Build your own engine for control over backend choice, caching, and parallelism.
///
/// # Errors
///
/// Returns [`tasd_tensor::TensorError::ShapeMismatch`] if `B`'s row count does not match
/// the series' column count.
///
/// # Example
///
/// ```
/// use tasd::{decompose, series_gemm, TasdConfig};
/// use tasd_tensor::{gemm, relative_frobenius_error, Matrix, MatrixGenerator};
///
/// let mut gen = MatrixGenerator::seeded(1);
/// let a = gen.sparse_normal(32, 32, 0.8);
/// let b = gen.normal(32, 16, 0.0, 1.0);
/// let series = decompose(&a, &TasdConfig::parse("2:4+2:8").unwrap());
/// let c_approx = series_gemm(&series, &b).unwrap();
/// let c_exact = gemm(&a, &b).unwrap();
/// assert!(relative_frobenius_error(&c_exact, &c_approx) < 0.25);
/// ```
pub fn series_gemm(series: &TasdSeries, b: &Matrix) -> Result<Matrix> {
    crate::engine::ExecutionEngine::global().series_gemm(series, b)
}

/// Accumulating variant of [`series_gemm`]: `C += Σᵢ Aᵢ·B`, dispatched through the
/// process-wide [`ExecutionEngine`](crate::ExecutionEngine).
///
/// This mirrors the hardware dataflow: the C tile stays stationary while successive
/// decomposed A tiles stream through (paper Fig. 11).
///
/// # Errors
///
/// Returns [`tasd_tensor::TensorError::ShapeMismatch`] on inconsistent shapes.
pub fn series_gemm_into(series: &TasdSeries, b: &Matrix, c: &mut Matrix) -> Result<()> {
    crate::engine::ExecutionEngine::global().series_gemm_into(series, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::{decompose, decompose_with_residual};
    use tasd_tensor::{gemm, MatrixGenerator};

    #[test]
    fn series_gemm_equals_gemm_of_reconstruction() {
        let mut gen = MatrixGenerator::seeded(2);
        let a = gen.sparse_normal(24, 40, 0.6);
        let b = gen.normal(40, 8, 0.0, 1.0);
        let series = decompose(&a, &TasdConfig::parse("2:4+2:8").unwrap());
        let via_series = series_gemm(&series, &b).unwrap();
        let via_dense = gemm(&series.reconstruct(), &b).unwrap();
        assert!(via_series.approx_eq(&via_dense, 1e-3));
    }

    #[test]
    fn lossless_series_gemm_is_exact() {
        let mut gen = MatrixGenerator::seeded(4);
        // 87.5%+ sparse: 1:8 + 1:8 + ... may still drop; use a config that saturates blocks.
        let a = gen.sparse_normal(16, 32, 0.9);
        let b = gen.normal(32, 8, 0.0, 1.0);
        let cfg = TasdConfig::parse("4:8+4:8").unwrap();
        let (series, residual) = decompose_with_residual(&a, &cfg);
        if residual.count_nonzeros() == 0 {
            let exact = gemm(&a, &b).unwrap();
            let approx = series_gemm(&series, &b).unwrap();
            assert!(approx.approx_eq(&exact, 1e-3));
        }
    }

    #[test]
    fn gemm_error_decreases_with_more_terms() {
        let mut gen = MatrixGenerator::seeded(8);
        let a = gen.sparse_uniform(64, 64, 0.5);
        let b = gen.uniform(64, 32, 0.0, 1.0);
        let exact = gemm(&a, &b).unwrap();
        let mut last_err = f64::INFINITY;
        for cfg in ["2:4", "2:4+2:8", "2:4+2:8+2:16"] {
            let series = decompose(&a, &TasdConfig::parse(cfg).unwrap());
            let err = relative_frobenius_error(&exact, &series_gemm(&series, &b).unwrap());
            assert!(err <= last_err + 1e-9, "error grew at {cfg}");
            last_err = err;
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(4, 8);
        let series = decompose(&a, &TasdConfig::parse("2:4").unwrap());
        assert!(series_gemm(&series, &Matrix::zeros(4, 4)).is_err());
        let b = Matrix::zeros(8, 4);
        let mut bad = Matrix::zeros(3, 4);
        assert!(series_gemm_into(&series, &b, &mut bad).is_err());
    }

    #[test]
    fn report_fields_are_consistent() {
        let mut gen = MatrixGenerator::seeded(12);
        let a = gen.sparse_normal(32, 64, 0.7);
        let cfg = TasdConfig::parse("2:8").unwrap();
        let series = decompose(&a, &cfg);
        let report = series.report(&a);
        assert_eq!(report.config, cfg);
        assert_eq!(report.original_nonzeros, a.count_nonzeros());
        assert_eq!(report.kept_nonzeros, series.nnz());
        let expected_drop = 1.0 - report.kept_nonzeros as f64 / report.original_nonzeros as f64;
        assert!((report.dropped_nonzero_fraction - expected_drop).abs() < 1e-9);
        // Greedy extraction: magnitude loss never exceeds count loss.
        assert!(report.dropped_magnitude_fraction <= report.dropped_nonzero_fraction + 1e-12);
        assert!(report.relative_frobenius_error >= 0.0);
    }

    #[test]
    fn effectual_macs_and_storage_sum_over_terms() {
        let mut gen = MatrixGenerator::seeded(14);
        let a = gen.sparse_normal(16, 32, 0.3);
        let series = decompose(&a, &TasdConfig::parse("2:8+1:8").unwrap());
        let nnz: usize = series.terms().iter().map(|t| t.nnz()).sum();
        assert_eq!(series.nnz(), nnz);
        assert_eq!(series.effectual_macs(10), nnz as u64 * 10);
        assert!(series.storage_bytes() >= nnz * 4);
    }

    #[test]
    fn empty_series_gemm_is_zero() {
        let a = Matrix::filled(4, 8, 1.0);
        let series = decompose(&a, &TasdConfig::new(Vec::new()));
        let b = Matrix::filled(8, 2, 1.0);
        let c = series_gemm(&series, &b).unwrap();
        assert_eq!(c, Matrix::zeros(4, 2));
    }
}
