//! Figure 12: normalized energy-delay product of the four workloads (dense/sparse
//! ResNet-50 and BERT) on the six hardware designs, plus the per-layer bars for the
//! representative layers of Table 4.

use tasd_accelsim::{simulate_layer, AcceleratorConfig, HwDesign};
use tasd_bench::{
    improvement_pct, layer_runs, normalize_against_tc, print_table, run_main_comparison,
    EXPERIMENT_SEED,
};
use tasd_models::representative::{find_layer_by_dims, representative_layers, Workload};
use tasder::Tasder;

fn main() {
    let mut geomeans: Vec<(String, Vec<f64>)> = Vec::new();
    for workload in Workload::all() {
        let results = run_main_comparison(workload, 1);
        let normalized = normalize_against_tc(&results);

        // Overall rows.
        let rows: Vec<Vec<String>> = normalized
            .iter()
            .map(|r| {
                vec![
                    r.design.clone(),
                    format!("{:.3}", r.edp_normalized),
                    format!("{:+.1}%", improvement_pct(r.edp_normalized)),
                    format!("{:.1}%", r.mac_reduction * 100.0),
                ]
            })
            .collect();
        print_table(
            &format!(
                "{} — Overall (normalized EDP vs dense TC)",
                workload.label()
            ),
            &["design", "EDP (norm.)", "EDP improvement", "MAC reduction"],
            &rows,
        );

        // Per-layer bars (L1-L3 of Table 4) for the TTC-VEGETA-M8 design.
        per_layer_bars(workload);

        for (i, r) in normalized.iter().enumerate() {
            if geomeans.len() <= i {
                geomeans.push((r.design.clone(), Vec::new()));
            }
            geomeans[i].1.push(r.edp_normalized);
        }
    }

    let geo_rows: Vec<Vec<String>> = geomeans
        .iter()
        .map(|(design, vals)| {
            let geo = vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64;
            vec![design.clone(), format!("{:.3}", geo.exp())]
        })
        .collect();
    print_table(
        "Geomean normalized EDP across workloads",
        &["design", "EDP (norm.)"],
        &geo_rows,
    );
}

/// Prints normalized EDP for the three representative layers of Table 4 on TC vs
/// TTC-VEGETA-M8.
fn per_layer_bars(workload: Workload) {
    let spec = workload.network(EXPERIMENT_SEED);
    let config = AcceleratorConfig::standard();
    let design = HwDesign::TtcVegetaM8;
    let tasder =
        Tasder::new(design.pattern_menu().expect("ttc has a menu"), 2).with_seed(EXPERIMENT_SEED);
    let transform = if workload.has_sparse_weights() {
        tasder.optimize_weights_layer_wise(&spec)
    } else {
        tasder.optimize_activations_layer_wise(&spec)
    };
    let runs = layer_runs(tasder.engine(), &spec, &transform, 1);
    let mut rows = Vec::new();
    for rep in representative_layers(workload) {
        let Some(name) = find_layer_by_dims(&spec, rep.gemm_dims) else {
            continue;
        };
        let Some(run) = runs.iter().find(|r| r.name == name) else {
            continue;
        };
        let tc = simulate_layer(HwDesign::DenseTc, &config, run);
        let ttc = simulate_layer(design, &config, run);
        rows.push(vec![
            rep.label.to_string(),
            name.clone(),
            format!("{:.3}", ttc.edp(1.0) / tc.edp(1.0)),
        ]);
    }
    print_table(
        &format!(
            "{} — representative layers, TTC-VEGETA-M8 EDP vs TC",
            workload.label()
        ),
        &["layer", "name", "EDP (norm.)"],
        &rows,
    );
}
