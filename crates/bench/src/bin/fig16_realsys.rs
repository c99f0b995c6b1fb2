//! Figure 16: real-system experiment — TASD-W (2:4) on an RTX-3080-class GPU with sparse
//! tensor cores, sweeping the number of converted layers of a sparse ResNet-34 and
//! reporting the end-to-end speedup together with the estimated accuracy.

use tasd::{ExecutionEngine, TasdConfig};
use tasd_accelsim::realsys::{sweep_tasd_layers, GpuModel};
use tasd_bench::{print_table, EXPERIMENT_SEED};
use tasd_dnn::ProxyAccuracyModel;
use tasd_models::profiles::sparse_model;
use tasder::tasd_w;

fn main() {
    // 93%-sparse ResNet-34, the SparseZoo model used in §5.5.
    let spec = sparse_model(&tasd_models::resnet::resnet34(), 0.93, EXPERIMENT_SEED);
    let gpu = GpuModel::rtx3080();
    let batch = 64;
    let quality = ProxyAccuracyModel::new(0.732); // ResNet-34 top-1

    // Per-layer 2:4 damage, so accuracy can be tracked as layers are converted in the same
    // (largest-MACs-first) order the speedup sweep uses.
    let uniform = tasd_w::apply_uniform(
        ExecutionEngine::global(),
        &spec,
        &TasdConfig::parse("2:4").expect("valid"),
        quality,
        EXPERIMENT_SEED,
    );
    let mut order: Vec<usize> = (0..spec.num_layers()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(spec.layers[i].dense_macs(batch)));

    let sweep = sweep_tasd_layers(&gpu, &spec, batch);
    let mut rows = Vec::new();
    for point in &sweep {
        // Accuracy when the first `point.num_tasd_layers` layers (by MAC order) are 2:4.
        let damage: Vec<_> = (0..spec.num_layers())
            .map(|i| {
                if order[..point.num_tasd_layers].contains(&i) {
                    uniform.assignments[i].damage
                } else {
                    tasd_dnn::quality::LayerDamage::none()
                }
            })
            .collect();
        let acc = quality.estimate(&damage);
        if point.num_tasd_layers % 4 == 0 || point.num_tasd_layers == spec.num_layers() {
            rows.push(vec![
                point.num_tasd_layers.to_string(),
                format!("{:.1}%", point.improvement_pct),
                format!("{:.2}%", acc * 100.0),
                format!("{:.2}%", (quality.base_accuracy - acc) * 100.0),
            ]);
        }
    }
    print_table(
        "Sparse ResNet-34 on RTX-3080-class GPU: speedup & accuracy vs #TASD-W (2:4) layers",
        &[
            "layers with TASD",
            "perf. improvement",
            "est. top-1",
            "accuracy drop",
        ],
        &rows,
    );
}
