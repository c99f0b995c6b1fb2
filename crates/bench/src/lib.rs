//! # tasd-bench
//!
//! Shared support code for the per-figure benchmark binaries (`src/bin/*`), which
//! regenerate every table and figure of the paper's evaluation section. The heavy lifting
//! lives in the library crates; this crate wires TASDER's per-layer decisions into the
//! accelerator model and formats the results the way the paper reports them.

#![warn(missing_docs)]

use tasd::ExecutionEngine;
use tasd_accelsim::{
    simulate_network, AcceleratorConfig, HwDesign, LayerRun, NetworkMetrics, OperandSide,
};
use tasd_dnn::NetworkSpec;
use tasd_models::representative::Workload;
use tasder::{TasdSide, TasdTransform, Tasder};

/// Standard seed used by every experiment binary so results are reproducible run to run.
pub const EXPERIMENT_SEED: u64 = 0x7A5D_2025;

/// Converts a TASDER transform into the per-layer runs the accelerator model consumes.
/// Each run carries the execution engine's plan for its GEMM
/// ([`LayerRun::from_spec_with_engine`]), so reports can show software backend choices
/// next to the hardware cost model.
pub fn layer_runs(
    engine: &ExecutionEngine,
    spec: &NetworkSpec,
    transform: &TasdTransform,
    batch: usize,
) -> Vec<LayerRun> {
    let side = match transform.side {
        TasdSide::Weights => OperandSide::Weights,
        TasdSide::Activations => OperandSide::Activations,
    };
    spec.layers
        .iter()
        .zip(&transform.assignments)
        .map(|(layer, assignment)| {
            LayerRun::from_spec_with_engine(engine, layer, batch, side, assignment.config.clone())
        })
        .collect()
}

/// Per-layer runs for a network executed with no TASD at all (the dense-TC and DSTC
/// baselines, and the plain-VEGETA ablation on unstructured models).
pub fn dense_layer_runs(
    engine: &ExecutionEngine,
    spec: &NetworkSpec,
    batch: usize,
) -> Vec<LayerRun> {
    spec.layers
        .iter()
        .map(|layer| {
            LayerRun::from_spec_with_engine(engine, layer, batch, OperandSide::Weights, None)
        })
        .collect()
}

/// Result of simulating one workload on one design, with everything the figures need.
#[derive(Debug, Clone)]
pub struct DesignResult {
    /// Design label (paper naming).
    pub design: String,
    /// Total cycles.
    pub cycles: f64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Energy-delay product in joule-seconds.
    pub edp: f64,
    /// EDP normalized to the dense TC baseline.
    pub edp_normalized: f64,
    /// Latency normalized to the dense TC baseline.
    pub latency_normalized: f64,
    /// Energy normalized to the dense TC baseline.
    pub energy_normalized: f64,
    /// Overall MAC reduction versus dense execution.
    pub mac_reduction: f64,
}

/// Builds the TASDER optimizer for a given design (its pattern menu and term limit). For
/// designs without structured support this returns `None`.
pub fn tasder_for_design(design: HwDesign, base_accuracy: f64) -> Option<Tasder> {
    design.pattern_menu().map(|menu| {
        Tasder::new(menu, design.max_tasd_terms().max(1))
            .with_quality_model(tasd_dnn::ProxyAccuracyModel::new(base_accuracy))
            .with_seed(EXPERIMENT_SEED)
    })
}

/// Simulates a workload on every design of the paper's main comparison (Fig. 12/13):
/// the dense TC and DSTC run the model as-is, every TTC variant runs the TASDER-optimized
/// transform for its own pattern menu.
pub fn run_main_comparison(workload: Workload, batch: usize) -> Vec<(HwDesign, NetworkMetrics)> {
    let spec = workload.network(EXPERIMENT_SEED);
    let config = AcceleratorConfig::standard();
    let mut results = Vec::new();
    for design in HwDesign::main_comparison() {
        let runs = match tasder_for_design(design, 0.761) {
            None => dense_layer_runs(ExecutionEngine::global(), &spec, batch),
            Some(tasder) => {
                // Designs with TASD units follow the paper's policy: TASD-W for
                // weight-sparse workloads, TASD-A for dense-weight workloads.
                let transform = if workload.has_sparse_weights() {
                    tasder.optimize_weights_layer_wise(&spec)
                } else {
                    tasder.optimize_activations_layer_wise(&spec)
                };
                layer_runs(tasder.engine(), &spec, &transform, batch)
            }
        };
        results.push((design, simulate_network(design, &config, &runs)));
    }
    results
}

/// Normalizes a set of per-design metrics against the first entry whose design is the
/// dense TC, producing one [`DesignResult`] per design.
pub fn normalize_against_tc(results: &[(HwDesign, NetworkMetrics)]) -> Vec<DesignResult> {
    let baseline = results
        .iter()
        .find(|(d, _)| *d == HwDesign::DenseTc)
        .map(|(_, m)| m)
        .expect("the comparison must include the dense TC baseline");
    results
        .iter()
        .map(|(design, m)| DesignResult {
            design: design.label().to_string(),
            cycles: m.total_cycles(),
            energy_pj: m.total_energy_pj(),
            edp: m.edp(),
            edp_normalized: m.edp() / baseline.edp(),
            latency_normalized: m.total_cycles() / baseline.total_cycles(),
            energy_normalized: m.total_energy_pj() / baseline.total_energy_pj(),
            mac_reduction: m.mac_reduction(),
        })
        .collect()
}

/// Prints a Markdown-style table: a header row and one row per record.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a ratio as the percentage improvement the paper quotes ("improves EDP by 83%"
/// means the normalized EDP is 0.17).
pub fn improvement_pct(normalized: f64) -> f64 {
    (1.0 - normalized) * 100.0
}

/// Test-support utilities shared by the repository's integration tests (e.g. the
/// loopback suite in `tests/serve_net.rs`).
pub mod testing {
    /// The host's available hardware parallelism (1 when it cannot be determined).
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Returns `true` when the host reports at least `required` parallel execution
    /// units; otherwise logs a skip notice naming `test_name` and returns `false`.
    ///
    /// Multi-thread stress tests use this as an early-return guard instead of
    /// `#[ignore]`: on a 1-CPU runner the test passes with a *logged* reason (visible in
    /// `--nocapture` output and in harness summaries as a fast pass), and on multi-core
    /// runners it runs unconditionally — no separate `--ignored` invocation for CI to
    /// forget.
    ///
    /// ```
    /// if !tasd_bench::testing::require_parallelism(2, "my_stress_test") {
    ///     return; // skipped, with the reason on stderr
    /// }
    /// ```
    pub fn require_parallelism(required: usize, test_name: &str) -> bool {
        let available = available_parallelism();
        if available >= required {
            return true;
        }
        eprintln!(
            "skipping {test_name}: needs >= {required} parallel execution units, \
             host reports {available} (std::thread::available_parallelism)"
        );
        false
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parallelism_probe_is_sane() {
            let n = available_parallelism();
            assert!(n >= 1);
            // A 1-unit requirement is always satisfiable; an absurd one never is.
            assert!(require_parallelism(1, "probe"));
            assert!(!require_parallelism(usize::MAX, "probe"));
        }
    }
}

/// Machine-readable bench results: the `BENCH_<name>.json` files at the repository root
/// that track the performance trajectory across PRs.
///
/// This is the workspace's one JSON writer, and it writes its flat, known-shape records
/// by hand. Each record is `{name, config, ns_per_iter}` — benchmark identity, workload
/// description, and best-observed wall-clock per iteration — plus an optional `gflops`
/// throughput field for kernel benches that declare their flop count
/// ([`BenchRecorder::measure_flops`]).
pub mod bench_json {
    use std::io::Write;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    /// One benchmark measurement destined for `BENCH_<bench>.json`.
    #[derive(Debug, Clone)]
    pub struct BenchRecord {
        /// Benchmark identity, e.g. `"submit_batched/32"`.
        pub name: String,
        /// Workload description, e.g. `"s90 256x512 panels=8 cfg=2:8+1:8"`.
        pub config: String,
        /// Best observed wall-clock per iteration, in nanoseconds.
        pub ns_per_iter: u128,
        /// Throughput in GFLOP/s derived from a declared per-iteration flop count
        /// ([`BenchRecorder::measure_flops`]); `None` for benches that measure
        /// latency of mixed work rather than a single kernel.
        pub gflops: Option<f64>,
    }

    /// Whether the process runs in `cargo bench -- --test` smoke mode: every routine
    /// executes once, timings are meaningless, and timing gates / JSON output are
    /// skipped. This is what CI's bench-smoke job uses so bench code cannot rot without
    /// CI failing on runner-speed noise. Delegates to the harness's own flag detection
    /// ([`criterion::is_test_mode`]) so the gate-skipping logic and the sample-count
    /// logic can never disagree about what `--test` means.
    pub fn quick_mode() -> bool {
        criterion::is_test_mode()
    }

    /// Collects measurements for one bench target and writes `BENCH_<bench>.json` at the
    /// repository root.
    #[derive(Debug)]
    pub struct BenchRecorder {
        bench: String,
        reps: usize,
        records: Vec<BenchRecord>,
    }

    impl BenchRecorder {
        /// A recorder for the bench target `bench`, measuring best-of-`reps` per entry
        /// (best-of de-noises single-core CI runners).
        pub fn new(bench: &str, reps: usize) -> Self {
            BenchRecorder {
                bench: bench.to_string(),
                reps: reps.max(1),
                records: Vec::new(),
            }
        }

        /// Measures `f` (best of the configured reps; exactly one rep in
        /// [`quick_mode`]), records it under `(name, config)`, prints a one-line
        /// summary, and returns the best duration.
        pub fn measure<O>(
            &mut self,
            name: &str,
            config: &str,
            mut f: impl FnMut() -> O,
        ) -> Duration {
            let reps = if quick_mode() { 1 } else { self.reps };
            if !quick_mode() {
                std::hint::black_box(f()); // Warm-up: page in code and data.
            }
            let best = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(f());
                    start.elapsed()
                })
                .min()
                .expect("at least one rep");
            println!(
                "{}/{name} [{config}]: {best:?} (best of {reps})",
                self.bench
            );
            self.records.push(BenchRecord {
                name: name.to_string(),
                config: config.to_string(),
                ns_per_iter: best.as_nanos(),
                gflops: None,
            });
            best
        }

        /// [`measure`](Self::measure) for a kernel whose per-iteration flop count is
        /// known: additionally records throughput (`flops / best_time`) as a `gflops`
        /// field, making kernel progress comparable across PRs even as workload
        /// shapes change. Use the *effectual* flop count (`2 · nnz · n_cols` for a
        /// sparse GEMM), so throughput reflects useful work, not skipped zeros.
        pub fn measure_flops<O>(
            &mut self,
            name: &str,
            config: &str,
            flops: u64,
            f: impl FnMut() -> O,
        ) -> Duration {
            let best = self.measure(name, config, f);
            if let Some(r) = self.records.last_mut() {
                let ns = r.ns_per_iter.max(1) as f64;
                let gflops = flops as f64 / ns; // flops per ns == GFLOP/s
                r.gflops = Some(gflops);
                println!("{}/{name} [{config}]: {gflops:.2} GFLOP/s", self.bench);
            }
            best
        }

        /// Adds an externally measured record.
        pub fn record(&mut self, name: &str, config: &str, duration: Duration) {
            self.records.push(BenchRecord {
                name: name.to_string(),
                config: config.to_string(),
                ns_per_iter: duration.as_nanos(),
                gflops: None,
            });
        }

        /// The records collected so far.
        pub fn records(&self) -> &[BenchRecord] {
            &self.records
        }

        /// Writes `BENCH_<bench>.json` at the repository root (skipped with a notice in
        /// [`quick_mode`] — one-shot timings would poison the trajectory).
        pub fn write(&self) -> std::io::Result<Option<PathBuf>> {
            if quick_mode() {
                println!(
                    "bench_json: quick (--test) mode, not writing BENCH_{}.json",
                    self.bench
                );
                return Ok(None);
            }
            let path = repo_root().join(format!("BENCH_{}.json", self.bench));
            let mut out = std::fs::File::create(&path)?;
            writeln!(out, "{{")?;
            writeln!(out, "  \"bench\": \"{}\",", escape(&self.bench))?;
            writeln!(out, "  \"results\": [")?;
            for (i, r) in self.records.iter().enumerate() {
                let comma = if i + 1 == self.records.len() { "" } else { "," };
                let gflops = match r.gflops {
                    Some(g) => format!(", \"gflops\": {g:.3}"),
                    None => String::new(),
                };
                writeln!(
                    out,
                    "    {{\"name\": \"{}\", \"config\": \"{}\", \"ns_per_iter\": {}{gflops}}}{comma}",
                    escape(&r.name),
                    escape(&r.config),
                    r.ns_per_iter
                )?;
            }
            writeln!(out, "  ]")?;
            writeln!(out, "}}")?;
            println!("bench_json: wrote {}", path.display());
            Ok(Some(path))
        }
    }

    /// The repository root, resolved from this crate's manifest directory (stable no
    /// matter where `cargo bench` is invoked from).
    fn repo_root() -> PathBuf {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
    }

    fn escape(s: &str) -> String {
        s.chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                c if c.is_control() => vec![' '],
                c => vec![c],
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn recorder_measures_and_escapes() {
            let mut rec = BenchRecorder::new("smoke_test", 2);
            let d = rec.measure("noop", "cfg \"x\"", || 1 + 1);
            assert!(d.as_nanos() > 0 || d.is_zero());
            assert_eq!(rec.records().len(), 1);
            assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        }

        #[test]
        fn measure_flops_records_throughput() {
            let mut rec = BenchRecorder::new("smoke_test", 1);
            rec.measure_flops("kernel", "cfg", 1_000_000, || std::hint::black_box(0));
            let r = &rec.records()[0];
            assert!(r.gflops.is_some_and(|g| g > 0.0));
            // Plain measure leaves the field unset.
            rec.measure("latency", "cfg", || std::hint::black_box(0));
            assert!(rec.records()[1].gflops.is_none());
        }

        #[test]
        fn repo_root_contains_workspace_manifest() {
            assert!(repo_root().join("Cargo.toml").exists());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd::PatternMenu;

    #[test]
    fn layer_runs_match_spec_length_and_side() {
        let spec = Workload::SparseResNet50.network(1);
        let tasder = Tasder::new(PatternMenu::vegeta_m8(), 2).with_seed(1);
        let transform = tasder.optimize_weights_layer_wise(&spec);
        let runs = layer_runs(tasder.engine(), &spec, &transform, 1);
        assert_eq!(runs.len(), spec.num_layers());
        assert!(runs.iter().all(|r| r.tasd_side == OperandSide::Weights));
        // At least the very sparse layers should carry configurations.
        assert!(runs.iter().filter(|r| r.tasd_config.is_some()).count() > spec.num_layers() / 2);
        // Engine-built runs all carry plans consistent with their configuration.
        assert!(runs.iter().all(|r| r.plan.is_some()));
        for run in &runs {
            let plan = run.plan.as_ref().unwrap();
            assert!(
                plan.compute_fraction() <= run.kept_fraction() + 1e-9,
                "{}",
                run.name
            );
        }
    }

    #[test]
    fn dense_runs_have_no_configs() {
        let spec = Workload::DenseBert.network(1);
        let runs = dense_layer_runs(ExecutionEngine::global(), &spec, 1);
        assert!(runs.iter().all(|r| r.tasd_config.is_none()));
        assert!(runs
            .iter()
            .all(|r| r.plan.as_ref().is_some_and(|p| p.num_terms() == 1)));
    }

    #[test]
    fn tasder_for_design_follows_menus() {
        assert!(tasder_for_design(HwDesign::DenseTc, 0.76).is_none());
        assert!(tasder_for_design(HwDesign::Dstc, 0.76).is_none());
        let t = tasder_for_design(HwDesign::TtcVegetaM8, 0.76).unwrap();
        assert_eq!(t.menu().m(), 8);
        assert_eq!(t.max_terms(), 2);
        let t4 = tasder_for_design(HwDesign::TtcStcM4, 0.76).unwrap();
        assert_eq!(t4.menu().m(), 4);
        assert_eq!(t4.max_terms(), 1);
    }

    #[test]
    fn improvement_formatting() {
        assert!((improvement_pct(0.17) - 83.0).abs() < 1e-9);
        assert_eq!(improvement_pct(1.0), 0.0);
        assert!(improvement_pct(1.12) < 0.0);
    }
}
