//! Figure 15: energy breakdown by hierarchy level for a representative sparse ResNet-50
//! layer on the dense TC versus TTC-VEGETA with the 4:8+1:8 configuration.

use tasd::TasdConfig;
use tasd_accelsim::{simulate_layer, AcceleratorConfig, HwDesign, LayerRun, OperandSide};
use tasd_bench::{print_table, EXPERIMENT_SEED};
use tasd_models::representative::{find_layer_by_dims, representative_layers, Workload};

fn main() {
    let workload = Workload::SparseResNet50;
    let spec = workload.network(EXPERIMENT_SEED);
    let config = AcceleratorConfig::standard();
    // Representative layer L1 (M784-N128-K1152) with the paper's 4:8+1:8 configuration.
    let rep = representative_layers(workload)
        .into_iter()
        .next()
        .expect("representative layers exist");
    let name = find_layer_by_dims(&spec, rep.gemm_dims).expect("layer exists in ResNet-50");
    let layer = spec.layer(&name).expect("layer exists");
    let run = LayerRun::from_spec(
        layer,
        1,
        OperandSide::Weights,
        Some(TasdConfig::parse("4:8+1:8").expect("valid config")),
    );

    let tc = simulate_layer(HwDesign::DenseTc, &config, &run);
    let ttc = simulate_layer(HwDesign::TtcVegetaM8, &config, &run);

    let mut rows = Vec::new();
    for ((label, tc_e), (_, ttc_e)) in tc.energy.components().iter().zip(ttc.energy.components()) {
        rows.push(vec![
            label.to_string(),
            format!("{:.3e}", tc_e),
            format!("{:.3e}", ttc_e),
            format!("{:.3}", ttc_e / tc_e.max(f64::MIN_POSITIVE)),
        ]);
    }
    rows.push(vec![
        "TOTAL".to_string(),
        format!("{:.3e}", tc.energy_pj()),
        format!("{:.3e}", ttc.energy_pj()),
        format!("{:.3}", ttc.energy_pj() / tc.energy_pj()),
    ]);
    print_table(
        &format!("Energy breakdown (pJ) for {name} — dense TC vs TTC-VEGETA (4:8+1:8)"),
        &["level", "TC", "TTC-VEGETA", "ratio"],
        &rows,
    );
    println!(
        "\nenergy saving over dense TC: {:.1}%",
        (1.0 - ttc.energy_pj() / tc.energy_pj()) * 100.0
    );
}
