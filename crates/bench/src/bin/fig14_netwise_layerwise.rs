//! Figure 14: estimated accuracy vs approximated sparsity for network-wise TASD (uniform
//! N:4 / N:8 / N:16 configurations) and the layer-wise TASDER result, for TASD-W on the
//! 95 % sparse ResNet-50 (upper plot) and TASD-A on the dense ResNet-50 (lower plot).

use tasd::ExecutionEngine;
use tasd::{PatternMenu, TasdConfig};
use tasd_bench::{print_table, EXPERIMENT_SEED};
use tasd_dnn::calibration::CalibrationProfile;
use tasd_dnn::ProxyAccuracyModel;
use tasd_models::representative::Workload;
use tasd_tensor::NmPattern;
use tasder::{tasd_a, tasd_w, Tasder};

fn main() {
    let quality = ProxyAccuracyModel::new(0.761);
    weight_side(quality);
    activation_side(quality);
}

/// Network-wise sweeps of every single-term N:M configuration, for M in {4, 8, 16}.
fn uniform_configs(m: usize) -> Vec<TasdConfig> {
    (1..m)
        .map(|n| TasdConfig::single(NmPattern::new(n, m).expect("n < m")))
        .collect()
}

fn weight_side(quality: ProxyAccuracyModel) {
    let spec = Workload::SparseResNet50.network(EXPERIMENT_SEED);
    let mut rows = Vec::new();
    for m in [4usize, 8, 16] {
        for cfg in uniform_configs(m) {
            let t = tasd_w::apply_uniform(
                ExecutionEngine::global(),
                &spec,
                &cfg,
                quality,
                EXPERIMENT_SEED,
            );
            rows.push(vec![
                format!("network-wise N:{m}"),
                cfg.to_string(),
                format!("{:.1}%", t.approximated_sparsity(&spec) * 100.0),
                format!("{:.2}%", t.estimated_accuracy() * 100.0),
                if t.meets_quality_threshold() {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ]);
        }
    }
    // Layer-wise TASDER point.
    let tasder = Tasder::new(PatternMenu::vegeta_m8(), 2)
        .with_quality_model(quality)
        .with_seed(EXPERIMENT_SEED);
    let lw = tasder.optimize_weights_layer_wise(&spec);
    rows.push(vec![
        "layer-wise N:8 (TASDER)".to_string(),
        "per-layer".to_string(),
        format!("{:.1}%", lw.approximated_sparsity(&spec) * 100.0),
        format!("{:.2}%", lw.estimated_accuracy() * 100.0),
        if lw.meets_quality_threshold() {
            "yes"
        } else {
            "no"
        }
        .to_string(),
    ]);
    print_table(
        "TASD-W on sparse ResNet-50: accuracy vs approximated sparsity",
        &[
            "strategy",
            "config",
            "approximated sparsity",
            "est. top-1",
            "meets 99%?",
        ],
        &rows,
    );
}

fn activation_side(quality: ProxyAccuracyModel) {
    let spec = Workload::DenseResNet50.network(EXPERIMENT_SEED);
    let profile = CalibrationProfile::synthetic(&spec, 8, EXPERIMENT_SEED);
    let mut rows = Vec::new();
    for m in [4usize, 8, 16] {
        for cfg in uniform_configs(m) {
            let t = tasd_a::apply_uniform(
                ExecutionEngine::global(),
                &spec,
                &profile,
                &cfg,
                quality,
                EXPERIMENT_SEED,
            );
            rows.push(vec![
                format!("network-wise N:{m}"),
                cfg.to_string(),
                format!("{:.1}%", t.approximated_sparsity(&spec) * 100.0),
                format!("{:.2}%", t.estimated_accuracy() * 100.0),
                if t.meets_quality_threshold() {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ]);
        }
    }
    let tasder = Tasder::new(PatternMenu::vegeta_m8(), 2)
        .with_quality_model(quality)
        .with_seed(EXPERIMENT_SEED);
    let lw = tasder.optimize_activations_with_profile(&spec, &profile);
    rows.push(vec![
        "layer-wise N:8 (TASDER)".to_string(),
        "per-layer".to_string(),
        format!("{:.1}%", lw.approximated_sparsity(&spec) * 100.0),
        format!("{:.2}%", lw.estimated_accuracy() * 100.0),
        if lw.meets_quality_threshold() {
            "yes"
        } else {
            "no"
        }
        .to_string(),
    ]);
    print_table(
        "TASD-A on dense ResNet-50: accuracy vs approximated sparsity",
        &[
            "strategy",
            "config",
            "approximated sparsity",
            "est. top-1",
            "meets 99%?",
        ],
        &rows,
    );
}
