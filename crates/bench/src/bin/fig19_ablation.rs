//! Figure 19 (Appendix B): ablation of the paper's contributions — DSTC, plain VEGETA,
//! VEGETA + TASDER (weight-side only), and TTC-VEGETA + TASDER (weights + dynamic
//! activation decomposition) — on dense, unstructured-pruned and structured-pruned
//! ResNet-50 and BERT.

use tasd::ExecutionEngine;
use tasd::{PatternMenu, TasdConfig};
use tasd_accelsim::{simulate_network, AcceleratorConfig, HwDesign};
use tasd_bench::{dense_layer_runs, layer_runs, print_table, EXPERIMENT_SEED};
use tasd_dnn::NetworkSpec;
use tasd_models::profiles::{dense_model_with_activation_sparsity, sparse_model};
use tasd_models::{resnet, transformer};
use tasder::{tasd_w, Tasder};

fn main() {
    let config = AcceleratorConfig::standard();
    let mut rows = Vec::new();
    for (label, spec, structured) in model_variants() {
        let tc = simulate_network(
            HwDesign::DenseTc,
            &config,
            &dense_layer_runs(ExecutionEngine::global(), &spec, 1),
        );
        let dstc = simulate_network(
            HwDesign::Dstc,
            &config,
            &dense_layer_runs(ExecutionEngine::global(), &spec, 1),
        );

        // Plain VEGETA: can only exploit offline structured-pruned (2:8-style) weights.
        let vegeta_runs = if structured {
            let uniform = tasd_w::apply_uniform(
                ExecutionEngine::global(),
                &spec,
                &TasdConfig::parse("2:8").expect("valid"),
                tasd_dnn::ProxyAccuracyModel::new(0.761),
                EXPERIMENT_SEED,
            );
            layer_runs(ExecutionEngine::global(), &spec, &uniform, 1)
        } else {
            dense_layer_runs(ExecutionEngine::global(), &spec, 1)
        };
        let vegeta = simulate_network(HwDesign::Vegeta, &config, &vegeta_runs);

        // VEGETA + TASDER: TASD-W transforms unstructured weights into the VEGETA menu,
        // but with no TASD units there is no dynamic activation decomposition.
        let tasder = Tasder::new(PatternMenu::vegeta_m8(), 2).with_seed(EXPERIMENT_SEED);
        let w_transform = tasder.optimize_weights_layer_wise(&spec);
        let vegeta_tasder = simulate_network(
            HwDesign::Vegeta,
            &config,
            &layer_runs(ExecutionEngine::global(), &spec, &w_transform, 1),
        );

        // TTC-VEGETA + TASDER: weight-side for sparse models, activation-side for dense.
        let ttc_transform = if spec.overall_weight_sparsity() > 0.05 {
            w_transform.clone()
        } else {
            tasder.optimize_activations_layer_wise(&spec)
        };
        let ttc = simulate_network(
            HwDesign::TtcVegetaM8,
            &config,
            &layer_runs(ExecutionEngine::global(), &spec, &ttc_transform, 1),
        );

        let base_edp = tc.edp();
        let norm = |m: &tasd_accelsim::NetworkMetrics| m.edp() / base_edp;
        rows.push(vec![
            label,
            format!("{:.3}", norm(&dstc)),
            format!("{:.3}", norm(&vegeta)),
            format!("{:.3}", norm(&vegeta_tasder)),
            format!("{:.3}", norm(&ttc)),
        ]);
    }
    print_table(
        "Normalized EDP (vs dense TC): DSTC / VEGETA / VEGETA+TASDER / TTC-VEGETA+TASDER",
        &[
            "model",
            "DSTC",
            "VEGETA",
            "VEGETA w/ TASDER",
            "TTC-VEGETA w/ TASDER",
        ],
        &rows,
    );
}

/// The six model variants of Fig. 19: {ResNet-50, BERT} × {dense, unstructured-pruned,
/// structured-pruned}. The returned flag marks the structured-pruned variants.
fn model_variants() -> Vec<(String, NetworkSpec, bool)> {
    let rn50 = resnet::resnet50();
    let bert = transformer::bert_base(128);
    vec![
        (
            "Dense ResNet50".to_string(),
            dense_model_with_activation_sparsity(&rn50, EXPERIMENT_SEED),
            false,
        ),
        (
            "Dense BERT".to_string(),
            dense_model_with_activation_sparsity(&bert, EXPERIMENT_SEED),
            false,
        ),
        (
            "Unstructured ResNet50".to_string(),
            sparse_model(&rn50, 0.95, EXPERIMENT_SEED),
            false,
        ),
        (
            "Unstructured BERT".to_string(),
            sparse_model(&bert, 0.90, EXPERIMENT_SEED),
            false,
        ),
        (
            "Structured ResNet50".to_string(),
            sparse_model(&rn50, 0.75, EXPERIMENT_SEED).with_uniform_weight_sparsity(0.75),
            true,
        ),
        (
            "Structured BERT".to_string(),
            sparse_model(&bert, 0.75, EXPERIMENT_SEED).with_uniform_weight_sparsity(0.75),
            true,
        ),
    ]
}
