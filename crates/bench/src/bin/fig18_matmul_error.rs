//! Figure 18 (Appendix A): relative Frobenius error of an approximated matrix
//! multiplication vs the approximated sparsity of the TASD configuration, for 20 % and 80 %
//! unstructured-sparse 256×256 operands under N:4 and N:8 configurations.

use tasd::analysis::matmul_error_analysis;
use tasd_bench::{print_table, EXPERIMENT_SEED};

fn main() {
    let points = matmul_error_analysis(256, &[0.2, 0.8], &[4, 8], EXPERIMENT_SEED);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.a_sparsity * 100.0),
                format!("{}:{}", p.n, p.block_m),
                format!("{:.1}%", p.approximated_sparsity * 100.0),
                format!("{:.3e}", p.error),
            ]
        })
        .collect();
    print_table(
        "Matrix-multiplication error vs approximated sparsity (256x256, uniform values)",
        &[
            "A sparsity",
            "config",
            "approximated sparsity",
            "relative error",
        ],
        &rows,
    );
}
