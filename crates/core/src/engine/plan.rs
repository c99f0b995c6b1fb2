//! Matmul execution plans: which backend runs each term, and what it should cost.

use crate::config::TasdConfig;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kernel family the planner assigns to a term (see
/// [`tasd_tensor::backend`] for the implementations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
/// This replaces the single dense-density crossover constant with a small table the
/// `tasd-bench` `backends` bench populates: software kernel crossovers are not a single
/// threshold — per-entry kernels (CSR) overtake the block-structured N:M kernel at low
/// density (fewer occupied blocks, but the N:M kernel still walks every block pointer),
/// while the cache-blocked dense kernel only wins near-dense, and tiny operands never
/// amortize a format conversion. The engine consults the table when *packing* a prepared
/// term into its execution format and when cost-modelling prepared execution
/// ([`plan_dims`](super::ExecutionEngine::plan_dims)); unprepared operands stay on their
/// stored format's kernel below the dense crossover (converting at execution time is
/// exactly what prepared execution exists to avoid).
///
/// [`BackendTable::measured`] carries the numbers recorded in `BENCH_backends.json` by
/// `cargo bench --bench backends`; [`BackendTable::from_threshold`] reproduces the old
/// single-constant rule and is the fallback when no measurements apply (e.g. an engine
/// built with an explicit [`dense_density_threshold`](super::EngineBuilder::dense_density_threshold)).
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
    /// * density ≥ 0.85 — the register-blocked dense kernel wins (the old
    ///   [`DEFAULT_DENSE_DENSITY_THRESHOLD`](super::DEFAULT_DENSE_DENSITY_THRESHOLD)
    ///   crossover, re-confirmed by the same bench);
    /// * small operands keep their stored structured format below the dense crossover.
    pub fn measured() -> Self {
        BackendTable {
            density_edges: vec![0.30, 0.85, 1.0],
            small_shape_elems: Self::SMALL_SHAPE_ELEMS,
            small: vec![BackendKind::Nm, BackendKind::Nm, BackendKind::Dense],
            large: vec![BackendKind::Csr, BackendKind::Nm, BackendKind::Dense],
        }
    }

    /// The pre-table rule as a degenerate table: every term below `threshold` runs on its
    /// structured kernel, everything at or above it on the dense kernel. This is the
    /// fallback an engine uses when a caller pins the crossover explicitly.
    pub fn from_threshold(threshold: f64) -> Self {
        let t = threshold.clamp(0.0, 1.0);
        BackendTable {
            density_edges: vec![t, 1.0],
            small_shape_elems: 0,
            small: vec![BackendKind::Nm, BackendKind::Dense],
            large: vec![BackendKind::Nm, BackendKind::Dense],
        }
    }

    /// A challenger kernel must beat the stored-format kernel by this factor before the
    /// table switches a bucket away from it: conversion costs memory and parity is not
    /// worth paying it (the same hysteresis the hand-derived [`measured`](Self::measured)
    /// table applied).
    const WIN_MARGIN: f64 = 1.05;

    /// Derives the table from a `BENCH_backends.json` recorded by
    /// `cargo bench --bench backends` **on the target machine** — the install-time
    /// auto-tuning path ([`EngineBuilder::auto_tune`](super::EngineBuilder::auto_tune)).
    ///
    /// The bench's `term_{nm_native,csr_packed,dense_packed}` sweeps measure the same
    /// decomposed term through all three kernels at several densities; this parser
    /// pools the triplets recorded at the same density across shapes (the table is
    /// keyed by density alone) and re-derives the density edges from the pooled
    /// samples:
    ///
    /// * the CSR/N:M edge is the midpoint between the highest sampled density where the
    ///   CSR kernel decisively beats the native N:M kernel (by ≥ 5%) and the lowest
    ///   where it does not;
    /// * the dense edge likewise, from samples where the dense kernel beats both sparse
    ///   kernels; with no such sample (the common case — the bench sweeps sparse terms)
    ///   the measured default of 0.85 stands;
    /// * the small-shape row always keeps the stored structured format below the dense
    ///   edge, as in [`measured`](Self::measured) — tiny operands never amortize a
    ///   conversion, whatever the kernel timings say.
    ///
    /// Returns `None` when the file is missing, unreadable, not shaped like a
    /// `BenchRecorder` output, carries no usable term triplets, or its samples are
    /// non-monotone (CSR losing at a lower density than it wins at) — the caller falls
    /// back to [`measured`](Self::measured) / [`from_threshold`](Self::from_threshold).
    pub fn from_bench_json(path: impl AsRef<std::path::Path>) -> Option<BackendTable> {
        Self::from_bench_json_str(&std::fs::read_to_string(path).ok()?)
    }

    /// [`from_bench_json`](Self::from_bench_json) on already-loaded file contents.
    pub fn from_bench_json_str(text: &str) -> Option<BackendTable> {
        let samples = pool_by_density(&parse_term_samples(text)?);
        if samples.is_empty() {
            return None;
        }
        let csr_wins = |s: &TermSample| (s.csr_ns as f64) * Self::WIN_MARGIN < s.nm_ns as f64;
        let dense_wins = |s: &TermSample| {
            (s.dense_ns as f64) * Self::WIN_MARGIN < s.nm_ns as f64
                && (s.dense_ns as f64) * Self::WIN_MARGIN < s.csr_ns as f64
        };
        let max_csr_win = samples
            .iter()
            .filter(|s| csr_wins(s))
            .map(|s| s.density)
            .fold(None, |acc: Option<f64>, d| {
                Some(acc.map_or(d, |a| a.max(d)))
            });
        let min_csr_hold = samples
            .iter()
            .filter(|s| !csr_wins(s) && !dense_wins(s))
            .map(|s| s.density)
            .fold(None, |acc: Option<f64>, d| {
                Some(acc.map_or(d, |a| a.min(d)))
            });
        let csr_edge = match (max_csr_win, min_csr_hold) {
            // Bracketed: split the gap between the regimes.
            (Some(win), Some(hold)) if win < hold => (win + hold) / 2.0,
            // Non-monotone data: refuse to tune from it.
            (Some(_), Some(_)) => return None,
            // CSR wins at every sampled density: extend to the dense crossover.
            (Some(_), None) => 0.85,
            // CSR never wins: no CSR bucket.
            (None, _) => 0.0,
        };
        let dense_edge = {
            let min_dense_win = samples
                .iter()
                .filter(|s| dense_wins(s))
                .map(|s| s.density)
                .fold(None, |acc: Option<f64>, d| {
                    Some(acc.map_or(d, |a| a.min(d)))
                });
            let max_sparse_hold = samples
                .iter()
                .filter(|s| !dense_wins(s))
                .map(|s| s.density)
                .fold(None, |acc: Option<f64>, d| {
                    Some(acc.map_or(d, |a| a.max(d)))
                });
            match (min_dense_win, max_sparse_hold) {
                (Some(win), Some(hold)) if hold < win => (win + hold) / 2.0,
                (Some(_), Some(_)) => return None,
                (Some(_), None) => 0.0,
                // No sampled density crossed into dense: the measured default stands.
                (None, _) => 0.85,
            }
        };
        let dense_edge = dense_edge.max(csr_edge).min(1.0);
        Some(BackendTable {
            density_edges: vec![csr_edge, dense_edge, 1.0],
            small_shape_elems: Self::SMALL_SHAPE_ELEMS,
            small: vec![BackendKind::Nm, BackendKind::Nm, BackendKind::Dense],
            large: vec![BackendKind::Csr, BackendKind::Nm, BackendKind::Dense],
        })
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

/// One per-term kernel triplet from a `BENCH_backends.json` sweep: the same decomposed
/// term timed through all three kernels.
#[derive(Debug, Clone, Copy)]
struct TermSample {
    density: f64,
    nm_ns: u64,
    csr_ns: u64,
    dense_ns: u64,
}

/// Extracts the `term_*` kernel triplets from a `BenchRecorder`-shaped JSON document
/// (see `tasd_bench::bench_json`). Returns `None` when the document is not shaped like
/// one (no `results` array, or a record missing its fields) — the flat schema is
/// hand-written by the recorder, so a parse failure means the file is not a bench
/// recording at all. Records that are not term sweeps are skipped, as are incomplete
/// triplets (a sweep interrupted mid-density).
fn parse_term_samples(text: &str) -> Option<Vec<TermSample>> {
    use std::collections::HashMap;

    #[derive(Default)]
    struct Partial {
        nm: Option<u64>,
        csr: Option<u64>,
        dense: Option<u64>,
    }

    let rest = &text[text.find("\"results\"")?..];
    let mut rest = &rest[rest.find('[')? + 1..];
    let mut partials: HashMap<String, Partial> = HashMap::new();
    loop {
        if rest.trim_start().starts_with(']') {
            break;
        }
        let start = rest.find('{')?;
        let len = rest[start..].find('}')?;
        let record = &rest[start + 1..start + len];
        rest = &rest[start + len + 1..];
        let name = json_str_field(record, "name")?;
        let config = json_str_field(record, "config")?;
        let ns = json_u64_field(record, "ns_per_iter")?;
        let slot = match name.as_str() {
            "term_nm_native" => 0,
            "term_csr_packed" => 1,
            "term_dense_packed" => 2,
            _ => continue,
        };
        let partial = partials.entry(config).or_default();
        match slot {
            0 => partial.nm = Some(ns),
            1 => partial.csr = Some(ns),
            _ => partial.dense = Some(ns),
        }
    }
    Some(
        partials
            .into_iter()
            .filter_map(|(config, p)| {
                Some(TermSample {
                    density: density_in(&config)?,
                    nm_ns: p.nm?,
                    csr_ns: p.csr?,
                    dense_ns: p.dense?,
                })
            })
            .collect(),
    )
}

/// Pools term samples recorded at the same density (to the nearest hundredth) across
/// shapes, summing each kernel's time over the group. The table is keyed by density
/// alone, so the bench's per-shape triplets at one density are one regime observation,
/// not several: without pooling, a near-margin split between shapes at a single density
/// (CSR decisively ahead on one shape, marginally on another) would read as
/// non-monotone data and needlessly reject the whole recording.
fn pool_by_density(samples: &[TermSample]) -> Vec<TermSample> {
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct Acc {
        density_sum: f64,
        n: u32,
        nm: u64,
        csr: u64,
        dense: u64,
    }
    let mut groups: BTreeMap<i64, Acc> = BTreeMap::new();
    for s in samples {
        let acc = groups
            .entry((s.density * 100.0).round() as i64)
            .or_default();
        acc.density_sum += s.density;
        acc.n += 1;
        acc.nm += s.nm_ns;
        acc.csr += s.csr_ns;
        acc.dense += s.dense_ns;
    }
    groups
        .into_values()
        .map(|a| TermSample {
            density: a.density_sum / f64::from(a.n),
            nm_ns: a.nm,
            csr_ns: a.csr,
            dense_ns: a.dense,
        })
        .collect()
}

/// The `density=<float>` annotation inside a term sweep's config string.
fn density_in(config: &str) -> Option<f64> {
    let at = config.find("density=")? + "density=".len();
    let rest = &config[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string value of `"key": "value"` inside one flat JSON object body.
fn json_str_field(record: &str, key: &str) -> Option<String> {
    let rest = past_key(record, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => out.push(chars.next()?),
            '"' => return Some(out),
            c => out.push(c),
        }
    }
    None
}

/// The integer value of `"key": 123` inside one flat JSON object body.
fn json_u64_field(record: &str, key: &str) -> Option<u64> {
    let rest = past_key(record, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Positions past `"key":` (with optional whitespace), at the start of the value.
fn past_key<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\"");
    let rest = &record[record.find(&pattern)? + pattern.len()..];
    Some(rest.trim_start().strip_prefix(':')?.trim_start())
}

/// The plan for one GEMM term (one structured term of a series, or the whole matrix for a
/// plain dense GEMM).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// The checked-in reference recording, resolved from this crate's manifest so the
    /// test is CWD-independent.
    const BENCH_BACKENDS_JSON: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backends.json");

    #[test]
    fn from_bench_json_derives_the_table_from_the_checked_in_recording() {
        let table = BackendTable::from_bench_json(BENCH_BACKENDS_JSON)
            .expect("the checked-in BENCH_backends.json must parse");
        // The recording's term sweeps, pooled across shapes per density: the SIMD CSR
        // kernel decisively beats native N:M at density 0.095 (≥ 20%) and only
        // marginally (< 5%) at ≈ 0.245, so the derived edge falls between the two; no
        // sampled density crosses into dense, so the measured 0.85 dense crossover
        // stands.
        assert_eq!(table.choose(0.095, 512, 512), BackendKind::Csr);
        assert_eq!(table.choose(0.12, 512, 512), BackendKind::Csr);
        assert_eq!(table.choose(0.25, 512, 512), BackendKind::Nm);
        assert_eq!(table.choose(0.5, 512, 512), BackendKind::Nm);
        assert_eq!(table.choose(0.9, 512, 512), BackendKind::Dense);
        // Small operands keep their stored structured format below the dense crossover.
        assert_eq!(table.choose(0.095, 16, 16), BackendKind::Nm);
        assert_eq!(table.choose(0.95, 16, 16), BackendKind::Dense);
    }

    #[test]
    fn from_bench_json_rejects_missing_and_malformed_input() {
        assert!(BackendTable::from_bench_json("/nonexistent/BENCH_backends.json").is_none());
        assert!(BackendTable::from_bench_json_str("").is_none());
        assert!(BackendTable::from_bench_json_str("{ not json at all").is_none());
        // Structurally broken results array: a record missing its fields.
        assert!(BackendTable::from_bench_json_str(
            r#"{"bench": "backends", "results": [ {"name": "term_nm_native"} ]}"#
        )
        .is_none());
        // Valid recorder output with no term sweeps: nothing to tune from.
        assert!(BackendTable::from_bench_json_str(
            r#"{"bench": "backends", "results": [
                {"name": "csr", "config": "512x512x512 s50", "ns_per_iter": 7849863}
            ]}"#
        )
        .is_none());
    }

    #[test]
    fn samples_at_one_density_pool_across_shapes() {
        // Two shapes at the same density straddling the 5% win margin (decisive on one,
        // marginal on the other) are one pooled observation — not non-monotone data.
        // Pooled at d=0.24: csr 1650 vs nm 1755 → 1.06× ≥ 5%, so CSR still wins there
        // and at the lower density; it wins everywhere sampled → bucket extends to the
        // dense crossover.
        let text = r#"{"bench": "backends", "results": [
            {"name": "term_nm_native", "config": "a density=0.1 x", "ns_per_iter": 200},
            {"name": "term_csr_packed", "config": "a density=0.1 x", "ns_per_iter": 100},
            {"name": "term_dense_packed", "config": "a density=0.1 x", "ns_per_iter": 900},
            {"name": "term_nm_native", "config": "b density=0.235 x", "ns_per_iter": 555},
            {"name": "term_csr_packed", "config": "b density=0.235 x", "ns_per_iter": 450},
            {"name": "term_dense_packed", "config": "b density=0.235 x", "ns_per_iter": 900},
            {"name": "term_nm_native", "config": "c density=0.24 x", "ns_per_iter": 1200},
            {"name": "term_csr_packed", "config": "c density=0.24 x", "ns_per_iter": 1200},
            {"name": "term_dense_packed", "config": "c density=0.24 x", "ns_per_iter": 9000}
        ]}"#;
        let table = BackendTable::from_bench_json_str(text).expect("pooled samples tune");
        assert_eq!(table.choose(0.5, 512, 512), BackendKind::Csr);
        assert_eq!(table.choose(0.9, 512, 512), BackendKind::Dense);
    }

    #[test]
    fn from_bench_json_rejects_non_monotone_samples() {
        // CSR losing at a *lower* density than it wins at is inconsistent data — the
        // parser must refuse to tune from it rather than guess an edge.
        let text = r#"{"bench": "backends", "results": [
            {"name": "term_nm_native", "config": "term a density=0.1 x", "ns_per_iter": 100},
            {"name": "term_csr_packed", "config": "term a density=0.1 x", "ns_per_iter": 100},
            {"name": "term_dense_packed", "config": "term a density=0.1 x", "ns_per_iter": 500},
            {"name": "term_nm_native", "config": "term b density=0.3 x", "ns_per_iter": 200},
            {"name": "term_csr_packed", "config": "term b density=0.3 x", "ns_per_iter": 100},
            {"name": "term_dense_packed", "config": "term b density=0.3 x", "ns_per_iter": 500}
        ]}"#;
        assert!(BackendTable::from_bench_json_str(text).is_none());
    }

    #[test]
    fn from_bench_json_handles_one_sided_samples() {
        // CSR decisively wins at every sampled density: the CSR bucket extends to the
        // dense crossover.
        let text = r#"{"bench": "backends", "results": [
            {"name": "term_nm_native", "config": "term a density=0.1 x", "ns_per_iter": 200},
            {"name": "term_csr_packed", "config": "term a density=0.1 x", "ns_per_iter": 100},
            {"name": "term_dense_packed", "config": "term a density=0.1 x", "ns_per_iter": 900}
        ]}"#;
        let table = BackendTable::from_bench_json_str(text).unwrap();
        assert_eq!(table.choose(0.5, 512, 512), BackendKind::Csr);
        assert_eq!(table.choose(0.9, 512, 512), BackendKind::Dense);
        // CSR never wins: no CSR bucket at all.
        let text = r#"{"bench": "backends", "results": [
            {"name": "term_nm_native", "config": "term a density=0.1 x", "ns_per_iter": 100},
            {"name": "term_csr_packed", "config": "term a density=0.1 x", "ns_per_iter": 100},
            {"name": "term_dense_packed", "config": "term a density=0.1 x", "ns_per_iter": 900}
        ]}"#;
        let table = BackendTable::from_bench_json_str(text).unwrap();
        assert_eq!(table.choose(0.05, 512, 512), BackendKind::Nm);
        assert_eq!(table.choose(0.5, 512, 512), BackendKind::Nm);
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
