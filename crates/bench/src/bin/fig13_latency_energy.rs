//! Figure 13: normalized latency and energy (separately) for the four workloads on the six
//! hardware designs.

use tasd_bench::{normalize_against_tc, print_table, run_main_comparison};
use tasd_models::representative::Workload;

fn main() {
    let mut geo: Vec<(String, Vec<f64>, Vec<f64>)> = Vec::new();
    for workload in Workload::all() {
        let results = run_main_comparison(workload, 1);
        let normalized = normalize_against_tc(&results);
        let rows: Vec<Vec<String>> = normalized
            .iter()
            .map(|r| {
                vec![
                    r.design.clone(),
                    format!("{:.3}", r.latency_normalized),
                    format!("{:.3}", r.energy_normalized),
                ]
            })
            .collect();
        print_table(
            &format!(
                "{} — normalized latency / energy vs dense TC",
                workload.label()
            ),
            &["design", "latency (norm.)", "energy (norm.)"],
            &rows,
        );
        for (i, r) in normalized.iter().enumerate() {
            if geo.len() <= i {
                geo.push((r.design.clone(), Vec::new(), Vec::new()));
            }
            geo[i].1.push(r.latency_normalized);
            geo[i].2.push(r.energy_normalized);
        }
    }
    let geo_rows: Vec<Vec<String>> = geo
        .iter()
        .map(|(d, lat, en)| {
            let g = |v: &Vec<f64>| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
            vec![d.clone(), format!("{:.3}", g(lat)), format!("{:.3}", g(en))]
        })
        .collect();
    print_table(
        "Geomean normalized latency / energy",
        &["design", "latency (norm.)", "energy (norm.)"],
        &geo_rows,
    );
}
