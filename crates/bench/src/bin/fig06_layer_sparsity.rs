//! Figure 6: per-layer weight and activation sparsity degrees of the 95 % unstructured
//! sparse ResNet-50 (SparseZoo-like profile).

use tasd_bench::{print_table, EXPERIMENT_SEED};
use tasd_models::representative::Workload;

fn main() {
    let spec = Workload::SparseResNet50.network(EXPERIMENT_SEED);
    let rows: Vec<Vec<String>> = spec
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| {
            vec![
                i.to_string(),
                l.name.clone(),
                format!("{:.1}", l.weight_sparsity * 100.0),
                format!("{:.1}", l.input_activation_sparsity * 100.0),
            ]
        })
        .collect();
    print_table(
        "Sparse ResNet-50: per-layer weight / activation sparsity (%)",
        &["#", "layer", "weight sparsity", "activation sparsity"],
        &rows,
    );
    println!(
        "\noverall weight sparsity: {:.1}% across {} CONV/FC layers",
        spec.overall_weight_sparsity() * 100.0,
        spec.num_layers()
    );
}
