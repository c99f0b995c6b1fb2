//! Figure 20 (Appendix B): normalized MAC counts after layer-wise TASD-W on sparse
//! ResNet/VGG models and layer-wise TASD-A on dense models (VGG-16, ResNet-18/50,
//! ConvNeXt-Tiny, ViT-B/16), each under the 99 % accuracy-retention constraint.

use tasd::PatternMenu;
use tasd_bench::{print_table, EXPERIMENT_SEED};
use tasd_models::profiles::{dense_model_with_activation_sparsity, sparse_model};
use tasder::Tasder;

fn main() {
    let tasder = Tasder::new(PatternMenu::vegeta_m8(), 2).with_seed(EXPERIMENT_SEED);

    // --- TASD-W on unstructured sparse models (SparseZoo-like, ~93% overall). ---
    let mut w_rows = Vec::new();
    let mut w_geo = Vec::new();
    for name in ["vgg11", "vgg16", "resnet18", "resnet34"] {
        let base = tasd_models::by_name(name).expect("model exists");
        let spec = sparse_model(&base, 0.93, EXPERIMENT_SEED);
        let t = tasder.optimize_weights_layer_wise(&spec);
        let normalized = 1.0 - t.mac_reduction(&spec);
        w_rows.push(vec![
            name.to_string(),
            format!("{:.3}", normalized),
            format!("{:.1}%", t.mac_reduction(&spec) * 100.0),
            format!("{}", t.meets_quality_threshold()),
        ]);
        w_geo.push(normalized);
    }
    w_rows.push(vec![
        "geomean".to_string(),
        format!("{:.3}", geomean(&w_geo)),
        format!("{:.1}%", (1.0 - geomean(&w_geo)) * 100.0),
        String::new(),
    ]);
    print_table(
        "Layer-wise TASD-W on sparse models: normalized MAC count",
        &["model", "MACs (norm.)", "MAC reduction", "meets 99%?"],
        &w_rows,
    );

    // --- TASD-A on dense models. ---
    let mut a_rows = Vec::new();
    let mut a_geo = Vec::new();
    for name in ["vgg16", "resnet18", "resnet50", "convnext-tiny", "vit-b-16"] {
        let base = tasd_models::by_name(name).expect("model exists");
        let spec = dense_model_with_activation_sparsity(&base, EXPERIMENT_SEED);
        let t = tasder.optimize_activations_layer_wise(&spec);
        let normalized = 1.0 - t.mac_reduction(&spec);
        a_rows.push(vec![
            name.to_string(),
            format!("{:.3}", normalized),
            format!("{:.1}%", t.mac_reduction(&spec) * 100.0),
            format!("{}", t.meets_quality_threshold()),
        ]);
        a_geo.push(normalized);
    }
    a_rows.push(vec![
        "geomean".to_string(),
        format!("{:.3}", geomean(&a_geo)),
        format!("{:.1}%", (1.0 - geomean(&a_geo)) * 100.0),
        String::new(),
    ]);
    print_table(
        "Layer-wise TASD-A on dense models: normalized MAC count",
        &["model", "MACs (norm.)", "MAC reduction", "meets 99%?"],
        &a_rows,
    );
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
