//! Table 4: the representative layers of each workload and their GEMM dimensions.

use tasd_bench::{print_table, EXPERIMENT_SEED};
use tasd_models::representative::{find_layer_by_dims, representative_layers, Workload};

fn main() {
    let mut rows = Vec::new();
    for workload in Workload::all() {
        let spec = workload.network(EXPERIMENT_SEED);
        for rep in representative_layers(workload) {
            let (m, n, k) = rep.gemm_dims;
            let name = find_layer_by_dims(&spec, rep.gemm_dims).unwrap_or_default();
            rows.push(vec![
                workload.label().to_string(),
                rep.label.to_string(),
                format!("M{m}-N{n}-K{k}"),
                name,
            ]);
        }
    }
    print_table(
        "Representative layers (Table 4)",
        &["workload", "layer", "GEMM dims", "model layer"],
        &rows,
    );
}
