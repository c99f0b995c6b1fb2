//! Greedy structured decomposition of a matrix into a TASD series.

use crate::config::TasdConfig;
use crate::series::TasdSeries;
use tasd_tensor::{Matrix, NmCompressed};

/// Decomposes `matrix` into a TASD series according to `config`.
///
/// Term `i` keeps, in every block of the running residual, the lanes
/// `config.terms()[i]` picks, and the next residual is what it leaves (paper Eq. 1–4 and
/// Fig. 4). The final residual is discarded — that is exactly the approximation error of
/// the series.
///
/// The work is one pass over the rows ([`NmCompressed::extract_series`]): each row is
/// copied once into a reused buffer, and each term in turn writes its kept `(lane,
/// value)` entries straight into its compressed storage and zeroes those lanes. Lanes
/// are ranked by magnitude, keyed `abs().to_bits()`, and the earlier lane wins a tie
/// (the selection rule of [`tasd_tensor::nm`]), so equal inputs always decompose to the
/// same bits. A NaN ranks above `+inf`, and since kept values are moved out rather than
/// subtracted, every input value — finite or not — lands in at most one term. Block
/// sizes are capped at [`tasd_tensor::NmPattern::MAX_M`].
///
/// The series stops at the first term that leaves no nonzeros: later terms would be
/// empty, so they are not materialized (the series still records the full `config`).
///
/// # Example
///
/// ```
/// use tasd::{decompose, TasdConfig};
/// use tasd_tensor::Matrix;
///
/// // The 2x8 matrix from the paper's Figure 4.
/// let a = Matrix::from_rows(&[
///     vec![1.0, 3.0, 0.0, 0.0, 2.0, 4.0, 4.0, 1.0],
///     vec![2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 4.0],
/// ]);
/// let series = decompose(&a, &TasdConfig::parse("2:4+2:8").unwrap());
/// // With these two terms the decomposition of A happens to be lossless.
/// assert_eq!(series.reconstruct(), a);
/// ```
pub fn decompose(matrix: &Matrix, config: &TasdConfig) -> TasdSeries {
    series(matrix, config, None)
}

/// Like [`decompose`], but also returns the final residual (the part of `matrix` not
/// covered by any term): the extraction's row buffer after the last term. For finite
/// inputs `matrix ==` reconstruction `+` residual holds exactly.
pub fn decompose_with_residual(matrix: &Matrix, config: &TasdConfig) -> (TasdSeries, Matrix) {
    let mut residual = Matrix::zeros(matrix.rows(), matrix.cols());
    let series = series(matrix, config, Some(&mut residual));
    (series, residual)
}

fn series(matrix: &Matrix, config: &TasdConfig, residual: Option<&mut Matrix>) -> TasdSeries {
    let mut terms = Vec::with_capacity(config.order());
    for (term, nonzeros_left) in NmCompressed::extract_series(matrix, config.terms(), residual) {
        terms.push(term);
        if nonzeros_left == 0 {
            break;
        }
    }
    TasdSeries::new(matrix.shape(), config.clone(), terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_tensor::{
        dropped_magnitude_fraction, dropped_nonzero_fraction, sparsity_degree, MatrixGenerator,
        NmPattern,
    };

    fn paper_matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 3.0, 0.0, 0.0, 2.0, 4.0, 4.0, 1.0],
            vec![2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 4.0],
        ])
    }

    #[test]
    fn figure4_two_term_decomposition_is_lossless() {
        let a = paper_matrix();
        let cfg = TasdConfig::parse("2:4+2:8").unwrap();
        let (series, residual) = decompose_with_residual(&a, &cfg);
        assert_eq!(residual.count_nonzeros(), 0);
        assert_eq!(series.reconstruct(), a);
        assert_eq!(series.num_terms(), 2);
        // First term holds 7 non-zeros (sum 21), second the remaining 3 (sum 4).
        assert_eq!(series.terms()[0].nnz(), 7);
        assert_eq!(series.terms()[1].nnz(), 3);
        assert_eq!(series.terms()[0].to_dense().sum(), 21.0);
        assert_eq!(series.terms()[1].to_dense().sum(), 4.0);
    }

    #[test]
    fn figure4_single_term_drop_statistics() {
        let a = paper_matrix();
        let series = decompose(&a, &TasdConfig::parse("2:4").unwrap());
        let approx = series.reconstruct();
        // 2:4 view keeps 70% of the non-zeros and 84% of the magnitude (paper §3.1).
        assert!((dropped_nonzero_fraction(&a, &approx) - 0.3).abs() < 1e-9);
        assert!((dropped_magnitude_fraction(&a, &approx) - 0.16).abs() < 1e-9);
    }

    #[test]
    fn three_four_view_drops_single_nonzero() {
        let a = paper_matrix();
        let series = decompose(&a, &TasdConfig::parse("3:4").unwrap());
        let approx = series.reconstruct();
        // Paper: 3:4 drops only one non-zero, covering 90% of non-zeros and 96% of magnitude.
        assert!((dropped_nonzero_fraction(&a, &approx) - 0.1).abs() < 1e-9);
        assert!((dropped_magnitude_fraction(&a, &approx) - 0.04).abs() < 1e-9);
    }

    #[test]
    fn terms_satisfy_their_patterns_and_supports_are_disjoint() {
        let mut gen = MatrixGenerator::seeded(21);
        let a = gen.sparse_normal(32, 64, 0.4);
        let cfg = TasdConfig::parse("2:4+2:8+2:16").unwrap();
        let series = decompose(&a, &cfg);
        for (term, &pattern) in series.terms().iter().zip(cfg.terms()) {
            assert_eq!(term.pattern(), pattern);
            assert!(pattern.is_satisfied_by(&term.to_dense()));
            term.validate().unwrap();
        }
        // Supports are disjoint: element-wise at most one term is non-zero.
        let denses: Vec<Matrix> = series.terms().iter().map(|t| t.to_dense()).collect();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let nz = denses.iter().filter(|d| d[(i, j)] != 0.0).count();
                assert!(nz <= 1, "element ({i},{j}) covered by {nz} terms");
            }
        }
    }

    #[test]
    fn reconstruction_plus_residual_is_exact() {
        let mut gen = MatrixGenerator::seeded(3);
        for sparsity in [0.0, 0.3, 0.8, 0.95] {
            let a = gen.sparse_normal(24, 48, sparsity);
            let cfg = TasdConfig::parse("4:8+1:8").unwrap();
            let (series, residual) = decompose_with_residual(&a, &cfg);
            let sum = series.reconstruct().try_add(&residual).unwrap();
            assert!(sum.approx_eq(&a, 1e-6));
        }
    }

    #[test]
    fn very_sparse_matrix_decomposes_losslessly_with_one_term() {
        let mut gen = MatrixGenerator::seeded(5);
        // ~97% sparse: almost every 8-block has <= 1 nonzero, so 2:8 is (near) lossless.
        let a = gen.sparse_normal(64, 64, 0.97);
        let series = decompose(&a, &TasdConfig::parse("2:8").unwrap());
        let err = dropped_nonzero_fraction(&a, &series.reconstruct());
        assert!(err < 0.05, "dropped fraction {err}");
    }

    #[test]
    fn dense_pattern_term_is_lossless() {
        let mut gen = MatrixGenerator::seeded(6);
        let a = gen.normal(16, 16, 0.0, 1.0);
        let series = decompose(&a, &TasdConfig::dense(8));
        assert_eq!(series.reconstruct(), a);
        assert_eq!(series.num_terms(), 1);
    }

    #[test]
    fn empty_config_approximates_to_zero() {
        let a = Matrix::filled(4, 8, 1.0);
        let (series, residual) = decompose_with_residual(&a, &TasdConfig::new(Vec::new()));
        assert_eq!(series.num_terms(), 0);
        assert_eq!(series.reconstruct(), Matrix::zeros(4, 8));
        assert_eq!(residual, a);
    }

    #[test]
    fn early_stop_when_residual_empties() {
        // A matrix that the first term captures entirely: later terms are skipped.
        let p = NmPattern::new(2, 4).unwrap();
        let a = MatrixGenerator::seeded(9).structured_nm(8, 16, p);
        let cfg = TasdConfig::parse("2:4+2:8+1:8").unwrap();
        let series = decompose(&a, &cfg);
        assert_eq!(series.num_terms(), 1);
        assert_eq!(series.reconstruct(), a);
        assert_eq!(series.config(), &cfg);
    }

    #[test]
    fn non_finite_values_land_in_exactly_one_term() {
        // Row 0: a NaN block, whose NaN ranks first, so 3.0 goes to the second term.
        // Row 1: an infinity block, kept whole by the first term, never split.
        let a = Matrix::from_rows(&[
            vec![1.0, f32::NAN, 3.0, 2.0, 0.0, 0.0, 0.0, 0.0],
            vec![f32::INFINITY, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0],
        ]);
        let series = decompose(&a, &TasdConfig::parse("1:4+1:4").unwrap());
        let entries: Vec<Vec<(usize, usize, u32)>> = series
            .terms()
            .iter()
            .map(|term| {
                (0..a.rows())
                    .flat_map(|i| term.row_entries(i).map(move |(j, v)| (i, j, v.to_bits())))
                    .collect()
            })
            .collect();
        assert_eq!(
            entries,
            vec![
                vec![(0, 1, f32::NAN.to_bits()), (1, 0, f32::INFINITY.to_bits())],
                vec![(0, 2, 3.0f32.to_bits()), (1, 3, 3.0f32.to_bits())],
            ]
        );
        // Disjoint supports, and each non-finite input sits in exactly one term with its
        // own bits.
        let mut cells: Vec<(usize, usize)> = entries.iter().flatten().map(|e| (e.0, e.1)).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), entries.iter().map(Vec::len).sum::<usize>());
        for i in 0..a.rows() {
            for (j, x) in a.row(i).iter().enumerate() {
                if !x.is_finite() {
                    let holders = entries.iter().flatten().filter(|e| (e.0, e.1) == (i, j));
                    assert_eq!(holders.map(|e| e.2).collect::<Vec<_>>(), vec![x.to_bits()]);
                }
            }
        }
        // The infinite row's product stays infinite instead of turning NaN.
        let product = crate::series_gemm(&series, &Matrix::filled(8, 1, 1.0)).unwrap();
        assert_eq!(product[(1, 0)], f32::INFINITY);
    }

    #[test]
    fn more_terms_never_increase_error() {
        let mut gen = MatrixGenerator::seeded(13);
        let a = gen.sparse_normal(64, 64, 0.5);
        let configs = ["2:4", "2:4+2:8", "2:4+2:8+2:16"];
        let mut last_dropped = f64::INFINITY;
        for c in configs {
            let series = decompose(&a, &TasdConfig::parse(c).unwrap());
            let dropped = dropped_nonzero_fraction(&a, &series.reconstruct());
            assert!(
                dropped <= last_dropped + 1e-12,
                "error increased at {c}: {dropped} > {last_dropped}"
            );
            last_dropped = dropped;
        }
    }

    #[test]
    fn approximated_sparsity_bounds_actual_kept_fraction() {
        let mut gen = MatrixGenerator::seeded(17);
        let a = gen.normal(32, 64, 0.0, 1.0); // dense input saturates every term
        let cfg = TasdConfig::parse("4:8+1:8").unwrap();
        let series = decompose(&a, &cfg);
        let kept = series.reconstruct().count_nonzeros() as f64 / a.len() as f64;
        assert!((kept - cfg.kept_density()).abs() < 1e-9);
        assert!(
            (sparsity_degree(&series.reconstruct()) - cfg.approximated_sparsity()).abs() < 1e-9
        );
    }
}
