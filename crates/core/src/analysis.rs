//! Synthetic-data analyses of TASD quality (paper Appendix A, Figures 17 and 18).
//!
//! These routines generate the same kinds of synthetic matrices the paper uses (128×128
//! normal-distributed with varying density; 256×256 uniform for the matmul study) and
//! report dropped-non-zero / dropped-magnitude fractions and matrix-multiplication error as
//! a function of the TASD configuration.

use crate::config::TasdConfig;
use crate::decompose::decompose;
use crate::series::series_gemm;
use tasd_tensor::{gemm, relative_frobenius_error, MatrixGenerator, NmPattern};

/// Value distribution used to synthesize test matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDistribution {
    /// Non-zeros drawn uniformly from `[0, 1)`.
    Uniform,
    /// Non-zeros drawn from a normal distribution with mean 0 and standard deviation 1/3
    /// (the distribution used for the paper's Figure 17).
    Normal,
}

/// One data point of the drop-fraction study (paper Fig. 17).
#[derive(Debug, Clone, PartialEq)]
pub struct DropAnalysisPoint {
    /// Density of the original synthetic matrix (1 - sparsity).
    pub original_density: f64,
    /// Configuration evaluated.
    pub config: TasdConfig,
    /// Percentage (0–100) of original non-zeros dropped by the series.
    pub dropped_nonzeros_pct: f64,
    /// Percentage (0–100) of original total magnitude dropped by the series.
    pub dropped_magnitude_pct: f64,
    /// Mean squared error between the original and reconstructed matrices.
    pub mse: f64,
}

/// Runs the drop-fraction study: for each density and each TASD configuration, decompose a
/// synthetic `size × size` matrix and measure what was lost.
///
/// The paper uses `size = 128`, densities 0.1–0.75, and the three series
/// `2:4`, `2:4+2:8`, `2:4+2:8+2:16`.
pub fn drop_analysis(
    size: usize,
    densities: &[f64],
    configs: &[TasdConfig],
    distribution: ValueDistribution,
    seed: u64,
) -> Vec<DropAnalysisPoint> {
    let mut points = Vec::with_capacity(densities.len() * configs.len());
    for (di, &density) in densities.iter().enumerate() {
        let sparsity = 1.0 - density.clamp(0.0, 1.0);
        let mut gen = MatrixGenerator::seeded(seed.wrapping_add(di as u64));
        let a = match distribution {
            ValueDistribution::Uniform => gen.sparse_uniform(size, size, sparsity),
            ValueDistribution::Normal => gen.sparse_normal(size, size, sparsity),
        };
        for config in configs {
            let series = decompose(&a, config);
            let report = series.report(&a);
            let approx = series.reconstruct();
            points.push(DropAnalysisPoint {
                original_density: density,
                config: config.clone(),
                dropped_nonzeros_pct: report.dropped_nonzero_fraction * 100.0,
                dropped_magnitude_pct: report.dropped_magnitude_fraction * 100.0,
                mse: tasd_tensor::mean_squared_error(&a, &approx),
            });
        }
    }
    points
}

/// One data point of the matrix-multiplication error study (paper Fig. 18).
#[derive(Debug, Clone, PartialEq)]
pub struct MatmulErrorPoint {
    /// Unstructured sparsity degree of the original operand `A`.
    pub a_sparsity: f64,
    /// Block size M of the single-term configuration swept.
    pub block_m: usize,
    /// N of the configuration (1..=M).
    pub n: usize,
    /// Approximated sparsity of the configuration, `1 - n/m`.
    pub approximated_sparsity: f64,
    /// Relative Frobenius error `||(A - A*)B|| / ||AB||`.
    pub error: f64,
}

/// Runs the matrix-multiplication error study: `A` (size×size, uniform values, given
/// unstructured sparsity) is approximated with every single-term `n:m` configuration for
/// `n = 1..=m`, multiplied with a dense `B`, and the relative Frobenius error of the
/// product is reported.
///
/// The paper uses `size = 256`, sparsities {0.2, 0.8} and `m ∈ {4, 8}`.
pub fn matmul_error_analysis(
    size: usize,
    a_sparsities: &[f64],
    block_ms: &[usize],
    seed: u64,
) -> Vec<MatmulErrorPoint> {
    let mut points = Vec::new();
    for (si, &a_sparsity) in a_sparsities.iter().enumerate() {
        let mut gen = MatrixGenerator::seeded(seed.wrapping_add(1000 * si as u64));
        let a = gen.sparse_uniform(size, size, a_sparsity);
        let b = gen.uniform(size, size, 0.0, 1.0);
        let exact = gemm(&a, &b).expect("square operands");
        for &m in block_ms {
            for n in 1..=m {
                let pattern = NmPattern::new(n, m).expect("n <= m");
                let config = TasdConfig::single(pattern);
                let series = decompose(&a, &config);
                let approx = series_gemm(&series, &b).expect("square operands");
                points.push(MatmulErrorPoint {
                    a_sparsity,
                    block_m: m,
                    n,
                    approximated_sparsity: pattern.approximated_sparsity(),
                    error: relative_frobenius_error(&exact, &approx),
                });
            }
        }
    }
    points
}

/// Convenience: the three TASD series used throughout the paper's Appendix A
/// (`2:4`, `2:4+2:8`, `2:4+2:8+2:16`).
pub fn appendix_a_configs() -> Vec<TasdConfig> {
    vec![
        TasdConfig::parse("2:4").expect("valid"),
        TasdConfig::parse("2:4+2:8").expect("valid"),
        TasdConfig::parse("2:4+2:8+2:16").expect("valid"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_analysis_trends_match_paper() {
        let configs = appendix_a_configs();
        let densities = [0.1, 0.3, 0.5, 0.75];
        let points = drop_analysis(128, &densities, &configs, ValueDistribution::Normal, 7);
        assert_eq!(points.len(), densities.len() * configs.len());

        // Takeaway 1: at low density, even two terms drop < 1% of non-zeros.
        let low_density_two_terms = points
            .iter()
            .find(|p| p.original_density == 0.1 && p.config == configs[1])
            .unwrap();
        assert!(
            low_density_two_terms.dropped_nonzeros_pct < 1.0,
            "dropped {}%",
            low_density_two_terms.dropped_nonzeros_pct
        );

        // Takeaway 2: dropped magnitude <= dropped non-zeros (greedy keeps the largest).
        for p in &points {
            assert!(p.dropped_magnitude_pct <= p.dropped_nonzeros_pct + 1e-9);
        }

        // More terms always drop (weakly) less at any given density.
        for &d in &densities {
            let by_cfg: Vec<f64> = configs
                .iter()
                .map(|c| {
                    points
                        .iter()
                        .find(|p| p.original_density == d && &p.config == c)
                        .unwrap()
                        .dropped_nonzeros_pct
                })
                .collect();
            assert!(by_cfg[0] >= by_cfg[1] - 1e-9 && by_cfg[1] >= by_cfg[2] - 1e-9);
        }

        // Drops grow with density for a fixed configuration.
        let one_term: Vec<f64> = densities
            .iter()
            .map(|&d| {
                points
                    .iter()
                    .find(|p| p.original_density == d && p.config == configs[0])
                    .unwrap()
                    .dropped_nonzeros_pct
            })
            .collect();
        assert!(one_term.windows(2).all(|w| w[0] <= w[1] + 1e-9));
    }

    #[test]
    fn matmul_error_trends_match_paper() {
        let points = matmul_error_analysis(128, &[0.2, 0.8], &[4, 8], 11);
        // Error shrinks as approximated sparsity shrinks (denser approximations).
        for &(s, m) in &[(0.2, 4usize), (0.8, 8usize)] {
            let mut errs: Vec<(f64, f64)> = points
                .iter()
                .filter(|p| p.a_sparsity == s && p.block_m == m)
                .map(|p| (p.approximated_sparsity, p.error))
                .collect();
            errs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            assert!(
                errs.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-6),
                "error should grow with approximated sparsity for s={s} m={m}"
            );
        }
        // Sparser A yields smaller error at equal approximated sparsity and block size.
        for n in 1..=4usize {
            let e20 = points
                .iter()
                .find(|p| p.a_sparsity == 0.2 && p.block_m == 4 && p.n == n)
                .unwrap()
                .error;
            let e80 = points
                .iter()
                .find(|p| p.a_sparsity == 0.8 && p.block_m == 4 && p.n == n)
                .unwrap()
                .error;
            assert!(
                e80 <= e20 + 1e-6,
                "n={n}: sparse-A error {e80} vs dense-A {e20}"
            );
        }
        // N:8 is more expressive than N:4 at the same approximated sparsity (e.g. 2:8 vs 1:4).
        let e_1_4 = points
            .iter()
            .find(|p| p.a_sparsity == 0.8 && p.block_m == 4 && p.n == 1)
            .unwrap()
            .error;
        let e_2_8 = points
            .iter()
            .find(|p| p.a_sparsity == 0.8 && p.block_m == 8 && p.n == 2)
            .unwrap()
            .error;
        assert!(
            e_2_8 <= e_1_4 + 1e-6,
            "2:8 ({e_2_8}) should beat 1:4 ({e_1_4})"
        );
        // A full-density view (n == m) is lossless.
        assert!(points
            .iter()
            .filter(|p| p.n == p.block_m)
            .all(|p| p.error < 1e-6));
    }

    #[test]
    fn appendix_a_config_list() {
        let cfgs = appendix_a_configs();
        assert_eq!(cfgs.len(), 3);
        assert_eq!(cfgs[2].order(), 3);
    }
}
