//! Matmul execution plans: which backend runs each term, and what it should cost.

use crate::config::TasdConfig;
use std::fmt;

/// The kernel family the planner assigns to a term (see
/// [`tasd_tensor::backend`] for the implementations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Cache-blocked dense kernel ([`tasd_tensor::DenseBackend`]).
    Dense,
    /// Unstructured sparse row kernel ([`tasd_tensor::CsrBackend`]).
    Csr,
    /// Structured N:M kernel ([`tasd_tensor::NmBackend`]).
    Nm,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Dense => "dense",
            BackendKind::Csr => "csr",
            BackendKind::Nm => "nm",
        })
    }
}

/// Measured backend lookup: (density bucket × shape bucket) → [`BackendKind`].
///
/// A small table the `tasd-bench` `backends` bench populates, because software kernel
/// crossovers are not a single threshold: per-entry kernels (CSR) overtake the block-structured N:M kernel at low
/// density (fewer occupied blocks, but the N:M kernel still walks every block pointer),
/// while the cache-blocked dense kernel only wins near-dense, and tiny operands never
/// amortize a format conversion. The engine consults the table when *packing* a prepared
/// term into its execution format and when cost-modelling prepared execution
/// ([`plan_dims`](super::ExecutionEngine::plan_dims)); unprepared operands stay on their
/// stored format's kernel below the dense crossover (converting at execution time is
/// exactly what prepared execution exists to avoid).
///
/// [`BackendTable::measured`] carries the numbers recorded in `BENCH_backends.json` by
/// `cargo bench --bench backends`, and every engine plans with it.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendTable {
    /// Ascending upper bounds of the density buckets; the last entry must be ≥ 1.0.
    density_edges: Vec<f64>,
    /// Operand element count below which the `small` row applies.
    small_shape_elems: usize,
    /// Backend per density bucket for small operands (conversion rarely amortizes).
    small: Vec<BackendKind>,
    /// Backend per density bucket for large operands.
    large: Vec<BackendKind>,
}

impl BackendTable {
    /// Element count below which an operand lands in the "small" shape bucket: a 128×128
    /// tile — under that, per-call overheads dominate and format conversion of a cached
    /// term buys nothing measurable.
    pub const SMALL_SHAPE_ELEMS: usize = 128 * 128;

    /// The table measured by `tasd-bench`'s `backends` bench on this repository's
    /// reference container (see `BENCH_backends.json` for the raw numbers):
    ///
    /// * density < 0.30, large operands — the CSR kernel beats the native N:M kernel
    ///   (~1.25× at 256×512 / density 0.10: the N:M kernel walks every block pointer,
    ///   occupied or not, while CSR touches only stored entries);
    /// * 0.30 ≤ density < 0.85 — the N:M kernel is at parity or better (512³ at 50%
    ///   density: 6.6 ms vs 7.2 ms CSR), so terms stay in their compressed form;
    /// * density ≥ 0.85 — the register-blocked dense kernel wins (measured between 0.75
    ///   and 1.0 on a 512³ GEMM; at 0.5 the sparse kernels are ~1.5× faster);
    /// * small operands keep their stored structured format below the dense crossover.
    pub fn measured() -> Self {
        BackendTable {
            density_edges: vec![0.30, 0.85, 1.0],
            small_shape_elems: Self::SMALL_SHAPE_ELEMS,
            small: vec![BackendKind::Nm, BackendKind::Nm, BackendKind::Dense],
            large: vec![BackendKind::Csr, BackendKind::Nm, BackendKind::Dense],
        }
    }

    /// The backend for a term of the given density and logical shape.
    pub fn choose(&self, density: f64, rows: usize, cols: usize) -> BackendKind {
        let row = if rows * cols < self.small_shape_elems {
            &self.small
        } else {
            &self.large
        };
        let d = density.clamp(0.0, 1.0);
        for (edge, &kind) in self.density_edges.iter().zip(row) {
            if d < *edge {
                return kind;
            }
        }
        *row.last().expect("table has at least one bucket")
    }

    /// Whether a term of this density and shape crosses into the dense kernel (the
    /// decision the old single constant made).
    pub fn is_dense_crossed(&self, density: f64, rows: usize, cols: usize) -> bool {
        self.choose(density, rows, cols) == BackendKind::Dense
    }
}

/// The plan for one GEMM term (one structured term of a series, or the whole matrix for a
/// plain dense GEMM).
#[derive(Debug, Clone, PartialEq)]
pub struct TermPlan {
    /// Kernel family chosen for this term.
    pub backend: BackendKind,
    /// Operand density the choice was based on.
    pub density: f64,
    /// Estimated effectual MACs of this term (`nnz × n`).
    pub estimated_macs: u64,
}

/// A backend assignment for every term of a matmul, produced by
/// [`ExecutionEngine::plan_series`](super::ExecutionEngine::plan_series) /
/// [`plan_dims`](super::ExecutionEngine::plan_dims) and consumed by the engine's execute
/// path (and, shape-only, by the accelerator model's workload builder).
#[derive(Debug, Clone, PartialEq)]
pub struct MatmulPlan {
    /// GEMM dimensions `(M, N, K)`: output rows, output columns, reduction depth.
    pub dims: (usize, usize, usize),
    /// Per-term assignments, in series order. A dense (undecomposed) GEMM has one entry.
    pub terms: Vec<TermPlan>,
    /// Whether the engine will tile this matmul's output rows across its executor's
    /// workers (enough estimated MACs, at least two rows, more than one worker).
    pub parallel: bool,
    /// Name of the forced backend when the engine was built with an explicit
    /// [`backend`](super::EngineBuilder::backend) override; `None` under automatic
    /// (density-driven) selection.
    pub backend_override: Option<String>,
}

impl MatmulPlan {
    /// Number of planned terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total estimated effectual MACs across terms.
    pub fn estimated_macs(&self) -> u64 {
        self.terms.iter().map(|t| t.estimated_macs).sum()
    }

    /// Dense MAC count of the planned GEMM (`M·N·K`).
    pub fn dense_macs(&self) -> u64 {
        let (m, n, k) = self.dims;
        m as u64 * n as u64 * k as u64
    }

    /// Estimated fraction of dense MACs actually executed (1.0 when nothing is skipped,
    /// 0.0 for an empty plan or empty GEMM).
    pub fn compute_fraction(&self) -> f64 {
        let dense = self.dense_macs();
        if dense == 0 {
            0.0
        } else {
            self.estimated_macs() as f64 / dense as f64
        }
    }

    /// Human-readable backend assignment, e.g. `"nm+nm"` or `"parallel(dense)"`.
    pub fn summary(&self) -> String {
        let inner = match &self.backend_override {
            Some(name) => name.clone(),
            None => self
                .terms
                .iter()
                .map(|t| t.backend.to_string())
                .collect::<Vec<_>>()
                .join("+"),
        };
        if self.parallel {
            format!("parallel({inner})")
        } else {
            inner
        }
    }

    /// Shape-only per-term density estimates for a decomposition of an operand with the
    /// given density under `config`: term `i` keeps at most its pattern's `n/m`, and the
    /// series in total cannot keep more than the operand holds.
    pub(crate) fn estimate_term_densities(density: f64, config: &TasdConfig) -> Vec<f64> {
        let mut remaining = density.clamp(0.0, 1.0);
        config
            .terms()
            .iter()
            .map(|pattern| {
                let d = pattern.density().min(remaining);
                remaining -= d;
                d
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> MatmulPlan {
        MatmulPlan {
            dims: (4, 8, 16),
            terms: vec![
                TermPlan {
                    backend: BackendKind::Nm,
                    density: 0.25,
                    estimated_macs: 128,
                },
                TermPlan {
                    backend: BackendKind::Csr,
                    density: 0.05,
                    estimated_macs: 26,
                },
            ],
            parallel: false,
            backend_override: None,
        }
    }

    #[test]
    fn totals_aggregate_terms() {
        let p = plan();
        assert_eq!(p.num_terms(), 2);
        assert_eq!(p.estimated_macs(), 154);
        assert_eq!(p.dense_macs(), 4 * 8 * 16);
        assert!((p.compute_fraction() - 154.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn summary_formats() {
        let mut p = plan();
        assert_eq!(p.summary(), "nm+csr");
        p.parallel = true;
        assert_eq!(p.summary(), "parallel(nm+csr)");
        p.backend_override = Some("custom".to_string());
        assert_eq!(p.summary(), "parallel(custom)");
    }

    #[test]
    fn term_density_estimates_cap_at_operand_density() {
        let cfg = TasdConfig::parse("4:8+2:8").unwrap();
        // Dense operand: every term saturates its pattern.
        let d = MatmulPlan::estimate_term_densities(1.0, &cfg);
        assert_eq!(d, vec![0.5, 0.25]);
        // 30%-dense operand: the first term absorbs everything.
        let d = MatmulPlan::estimate_term_densities(0.3, &cfg);
        assert!((d[0] - 0.3).abs() < 1e-12);
        assert!(d[1].abs() < 1e-12);
        // 60%-dense: first term caps at 0.5, second takes the remaining 0.1.
        let d = MatmulPlan::estimate_term_densities(0.6, &cfg);
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_plan_is_well_behaved() {
        let p = MatmulPlan {
            dims: (0, 0, 0),
            terms: vec![],
            parallel: false,
            backend_override: None,
        };
        assert_eq!(p.estimated_macs(), 0);
        assert_eq!(p.compute_fraction(), 0.0);
        assert_eq!(p.summary(), "");
    }
}
