//! Figure 17 (Appendix A): percentage of dropped non-zeros and dropped magnitude vs the
//! original density of a 128×128 synthetic matrix, for 1/2/3-term TASD series.

use tasd::analysis::{appendix_a_configs, drop_analysis, ValueDistribution};
use tasd_bench::{print_table, EXPERIMENT_SEED};

fn main() {
    let densities = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75];
    let configs = appendix_a_configs();
    let points = drop_analysis(
        128,
        &densities,
        &configs,
        ValueDistribution::Normal,
        EXPERIMENT_SEED,
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.original_density),
                p.config.to_string(),
                format!("{:.2}", p.dropped_nonzeros_pct),
                format!("{:.2}", p.dropped_magnitude_pct),
                format!("{:.2e}", p.mse),
            ]
        })
        .collect();
    print_table(
        "Dropped non-zeros / magnitude vs density (normal distribution, 128x128)",
        &[
            "density",
            "TASD series",
            "dropped non-zeros (%)",
            "dropped magnitude (%)",
            "MSE",
        ],
        &rows,
    );
    // Also report the uniform distribution, as the appendix compares both.
    let uniform = drop_analysis(
        128,
        &densities,
        &configs,
        ValueDistribution::Uniform,
        EXPERIMENT_SEED,
    );
    let urows: Vec<Vec<String>> = uniform
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.original_density),
                p.config.to_string(),
                format!("{:.2}", p.dropped_nonzeros_pct),
                format!("{:.2}", p.dropped_magnitude_pct),
            ]
        })
        .collect();
    print_table(
        "Dropped non-zeros / magnitude vs density (uniform distribution, 128x128)",
        &[
            "density",
            "TASD series",
            "dropped non-zeros (%)",
            "dropped magnitude (%)",
        ],
        &urows,
    );
}
