//! The analytical execution model: effectual MACs, per-level access counts, energy and
//! cycles for one GEMM layer on one hardware design.
//!
//! The model follows the decomposition-aware, output-stationary dataflow of the paper's
//! Fig. 11: the decomposed operand ("A side") streams through the PE array term by term
//! while the streaming operand ("B side") is reused out of the L2 scratchpad and the output
//! tile stays stationary in the L1 scratchpad / register file across TASD terms. Access
//! counts are first-order (Sparseloop-style): every operand moves through
//! DRAM → L2 → L1 → RF once per reuse opportunity, with reuse factors set by the tile
//! sizes in [`AcceleratorConfig`].

use crate::config::AcceleratorConfig;
use crate::designs::HwDesign;
use crate::metrics::{EnergyBreakdown, LayerMetrics, NetworkMetrics};
use crate::workload::{LayerRun, OperandSide};

/// Fraction of peak PE utilization an unstructured (DSTC-like) design sustains once load
/// imbalance across rows/columns of a random sparse operand is accounted for (§2.3).
const DSTC_UTILIZATION: f64 = 0.6;

/// Per-non-zero storage expansion of an unstructured compressed format
/// (value + explicit coordinate), relative to storing just the value.
const UNSTRUCTURED_INDEX_OVERHEAD: f64 = 1.5;

/// Per-non-zero storage expansion of an N:M structured compressed format
/// (value + a few metadata bits), relative to storing just the value.
const STRUCTURED_META_OVERHEAD: f64 = 1.125;

/// Simulates one layer on one design.
///
/// The `run.tasd_config` is interpreted according to the design: designs without
/// structured support (dense TC, DSTC) ignore it; designs without TASD units
/// (plain VEGETA) honour it only if it is a single native term (i.e. the weights were
/// actually structured-pruned offline); TTC designs honour any configuration whose terms
/// are within their menu.
pub fn simulate_layer(
    design: HwDesign,
    config: &AcceleratorConfig,
    run: &LayerRun,
) -> LayerMetrics {
    let (m, n, k) = run.dims;
    let (m, n, k) = (m as f64, n as f64, k as f64);
    let dense_macs = m * n * k;
    let e = &config.energy;

    // --- What fraction of the decomposed operand is stored / computed on. ---
    let kept = effective_kept_fraction(design, run);
    let weight_density = run.weight_density.clamp(0.0, 1.0);
    let act_density = run.activation_density.clamp(0.0, 1.0);

    // --- Effectual MACs. ---
    let effectual_macs = match design {
        HwDesign::DenseTc => dense_macs,
        HwDesign::Dstc => dense_macs * weight_density * act_density,
        _ => dense_macs * kept,
    };

    // --- Operand footprints (words). ---
    let a_elements = run.tasd_side_elements(); // decomposed side
    let b_elements = run.other_side_elements(); // streaming side
    let c_elements = run.output_elements();
    let (a_words, b_words) = match design {
        HwDesign::DenseTc => (a_elements, b_elements),
        HwDesign::Dstc => (
            a_elements * run.tasd_side_density() * UNSTRUCTURED_INDEX_OVERHEAD,
            b_elements * run.other_side_density() * UNSTRUCTURED_INDEX_OVERHEAD,
        ),
        _ => (a_elements * kept * STRUCTURED_META_OVERHEAD, b_elements),
    };

    // --- DRAM traffic: each operand streamed once, output written once. ---
    let dram_words = a_words + b_words + c_elements;

    // --- L2 traffic: A passes through once; the B panel is re-read for every output-row
    //     tile; C is written through once. ---
    let row_tiles = (m / config.tile_m as f64).ceil().max(1.0);
    let l2_words = a_words + b_words * row_tiles + c_elements;

    // --- L1 traffic: A passes through; B enters once per effectual MAC divided by the
    //     spatial reuse across a PE column; the output tile is read+written once per TASD
    //     term (C stays in L1 across terms — the decomposition-aware dataflow — but each
    //     extra term still re-touches it). ---
    let terms = effective_terms(design, run) as f64;
    let b_l1 = effectual_macs / config.pe_rows as f64;
    let mut l1_words = a_words + b_l1 + 2.0 * c_elements * terms;
    // DSTC pays for its accumulation/merge buffer: partial outputs are spilled and merged
    // far more often than in an output-stationary structured dataflow.
    if design == HwDesign::Dstc {
        l1_words += 1.5 * effectual_macs;
    }

    // --- RF traffic: two operand reads and one accumulation per effectual MAC. ---
    let rf_words = 3.0 * effectual_macs;

    // --- Compute energy, with operand gating for zeros on the streaming side. ---
    let gating = if design.supports_operand_gating() {
        run.other_side_density().clamp(0.0, 1.0)
    } else {
        1.0
    };
    let mut mac_energy = effectual_macs * e.mac_pj * gating;
    if design == HwDesign::Dstc {
        mac_energy += effectual_macs * e.unstructured_index_pj;
    }

    // --- TASD-unit energy: dynamic decomposition of activations only. ---
    let tasd_unit_energy = if design.supports_dynamic_decomposition()
        && run.tasd_side == OperandSide::Activations
        && run.tasd_config.as_ref().is_some_and(|c| !c.is_dense())
    {
        a_elements * terms * e.tasd_unit_pj
    } else {
        0.0
    };

    // --- Cycles: compute bound vs DRAM bandwidth bound. ---
    let utilization = if design == HwDesign::Dstc {
        DSTC_UTILIZATION
    } else {
        1.0
    };
    let compute_cycles = effectual_macs / (config.macs_per_cycle() * utilization);
    let memory_cycles = dram_words / config.dram_words_per_cycle;
    let cycles = compute_cycles.max(memory_cycles);

    let energy = EnergyBreakdown {
        dram: dram_words * e.dram_pj,
        l2: l2_words * e.l2_pj,
        l1: l1_words * e.l1_pj,
        rf: rf_words * e.rf_pj,
        mac: mac_energy,
        tasd_unit: tasd_unit_energy,
    };

    LayerMetrics {
        name: run.name.clone(),
        cycles,
        energy,
        effectual_macs,
        dense_macs,
    }
}

/// Simulates every layer of a network and aggregates the results.
pub fn simulate_network(
    design: HwDesign,
    config: &AcceleratorConfig,
    runs: &[LayerRun],
) -> NetworkMetrics {
    let layers: Vec<LayerMetrics> = runs
        .iter()
        .map(|run| simulate_layer(design, config, run))
        .collect();
    NetworkMetrics {
        design: design.label().to_string(),
        layers,
        frequency_ghz: config.frequency_ghz,
    }
}

/// The fraction of the decomposed operand a design actually keeps/computes on, after
/// accounting for what the design can honour.
fn effective_kept_fraction(design: HwDesign, run: &LayerRun) -> f64 {
    match design {
        // No structured support: the configuration is irrelevant.
        HwDesign::DenseTc | HwDesign::Dstc => 1.0,
        _ => {
            let Some(cfg) = &run.tasd_config else {
                return 1.0;
            };
            if cfg.is_dense() {
                return 1.0;
            }
            // Designs without TASD units can only honour single-term native patterns
            // (offline structured-pruned weights); anything else falls back to dense.
            if design.max_tasd_terms() == 0 {
                let native_single = cfg.order() == 1
                    && design
                        .pattern_menu()
                        .is_some_and(|menu| menu.native_patterns().contains(&cfg.terms()[0]));
                let weights_side = run.tasd_side == OperandSide::Weights;
                if !(native_single && weights_side) {
                    return 1.0;
                }
            }
            // Dynamic (activation-side) decomposition needs TASD units.
            if run.tasd_side == OperandSide::Activations && !design.supports_dynamic_decomposition()
            {
                return 1.0;
            }
            run.kept_fraction()
        }
    }
}

/// Number of decomposition terms the design actually executes for this layer.
fn effective_terms(design: HwDesign, run: &LayerRun) -> usize {
    if effective_kept_fraction(design, run) >= 1.0 {
        1
    } else {
        run.num_terms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd::TasdConfig;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::standard()
    }

    /// A sparse-ResNet-50-like layer: weights 95% sparse, activations 50% sparse.
    fn sparse_conv_layer(tasd: Option<&str>) -> LayerRun {
        LayerRun {
            name: "l".to_string(),
            dims: (784, 128, 1152),
            weight_density: 0.05,
            activation_density: 0.5,
            tasd_side: OperandSide::Weights,
            tasd_config: tasd.map(|s| TasdConfig::parse(s).unwrap()),
            plan: None,
        }
    }

    /// A dense-BERT-like layer: everything dense.
    fn dense_fc_layer(tasd: Option<&str>, side: OperandSide) -> LayerRun {
        LayerRun {
            name: "fc".to_string(),
            dims: (128, 3072, 768),
            weight_density: 1.0,
            activation_density: 1.0,
            tasd_side: side,
            tasd_config: tasd.map(|s| TasdConfig::parse(s).unwrap()),
            plan: None,
        }
    }

    #[test]
    fn dense_tc_executes_all_macs() {
        let run = sparse_conv_layer(Some("1:8"));
        let m = simulate_layer(HwDesign::DenseTc, &cfg(), &run);
        assert_eq!(m.effectual_macs, m.dense_macs);
        assert_eq!(m.mac_reduction(), 0.0);
        assert_eq!(m.energy.tasd_unit, 0.0);
        assert!(m.cycles > 0.0 && m.energy_pj() > 0.0);
    }

    #[test]
    fn structured_design_skips_by_kept_fraction() {
        let run = sparse_conv_layer(Some("1:8"));
        let m = simulate_layer(HwDesign::TtcVegetaM8, &cfg(), &run);
        // A 1:8 engine processes one slot per 8-element block: 12.5% of the dense MACs.
        assert!((m.effectual_macs / m.dense_macs - 0.125).abs() < 1e-9);
        let dense = simulate_layer(HwDesign::DenseTc, &cfg(), &run);
        assert!(m.cycles < dense.cycles);
        assert!(m.energy_pj() < dense.energy_pj());
        assert!(m.edp(1.0) < dense.edp(1.0));
    }

    #[test]
    fn dstc_skips_on_both_operands_but_pays_overheads() {
        let sparse = sparse_conv_layer(None);
        let dstc = simulate_layer(HwDesign::Dstc, &cfg(), &sparse);
        // Both-side skipping: 0.05 * 0.5 of dense MACs.
        assert!((dstc.effectual_macs / dstc.dense_macs - 0.025).abs() < 1e-9);
        // For a fully dense layer, DSTC is strictly worse than the dense TC in EDP.
        let dense = dense_fc_layer(None, OperandSide::Weights);
        let tc = simulate_layer(HwDesign::DenseTc, &cfg(), &dense);
        let dstc_dense = simulate_layer(HwDesign::Dstc, &cfg(), &dense);
        assert!(dstc_dense.edp(1.0) > tc.edp(1.0));
        assert!(
            dstc_dense.cycles > tc.cycles,
            "imbalance penalty must show up"
        );
        // For the doubly-sparse layer, DSTC beats the dense TC by a wide margin.
        let tc_sparse = simulate_layer(HwDesign::DenseTc, &cfg(), &sparse);
        assert!(dstc.edp(1.0) < 0.5 * tc_sparse.edp(1.0));
    }

    #[test]
    fn vegeta_without_tasd_cannot_exploit_unstructured_weights() {
        // Two-term config on unstructured weights: plain VEGETA must fall back to dense.
        let run = sparse_conv_layer(Some("4:8+1:8"));
        let vegeta = simulate_layer(HwDesign::Vegeta, &cfg(), &run);
        assert_eq!(vegeta.effectual_macs, vegeta.dense_macs);
        // The TTC variant with TASD honours it.
        let ttc = simulate_layer(HwDesign::TtcVegetaM8, &cfg(), &run);
        assert!(ttc.effectual_macs < vegeta.effectual_macs);
        // But a single native pattern (offline structured-pruned weights) is fine.
        let structured = sparse_conv_layer(Some("2:8"));
        let vegeta_structured = simulate_layer(HwDesign::Vegeta, &cfg(), &structured);
        assert!(vegeta_structured.effectual_macs < vegeta_structured.dense_macs);
    }

    #[test]
    fn activation_decomposition_needs_tasd_units_and_costs_energy() {
        let run = LayerRun {
            name: "act".to_string(),
            dims: (3136, 64, 576),
            weight_density: 1.0,
            activation_density: 0.5,
            tasd_side: OperandSide::Activations,
            tasd_config: Some(TasdConfig::parse("4:8+1:8").unwrap()),
            plan: None,
        };
        let ttc = simulate_layer(HwDesign::TtcVegetaM8, &cfg(), &run);
        assert!(
            ttc.energy.tasd_unit > 0.0,
            "dynamic decomposition must cost energy"
        );
        // 4:8+1:8 keeps 5 of 8 slots per block.
        assert!((ttc.effectual_macs / ttc.dense_macs - 0.625).abs() < 1e-9);
        // Plain VEGETA has no TASD units: runs densely, no TASD-unit energy.
        let vegeta = simulate_layer(HwDesign::Vegeta, &cfg(), &run);
        assert_eq!(vegeta.effectual_macs, vegeta.dense_macs);
        assert_eq!(vegeta.energy.tasd_unit, 0.0);
    }

    #[test]
    fn more_tasd_terms_cost_more_output_traffic() {
        let one_term = LayerRun {
            tasd_config: Some(TasdConfig::parse("4:8").unwrap()),
            ..sparse_conv_layer(None)
        };
        let two_terms = LayerRun {
            tasd_config: Some(TasdConfig::parse("2:8+2:8").unwrap()),
            ..sparse_conv_layer(None)
        };
        let m1 = simulate_layer(HwDesign::TtcVegetaM8, &cfg(), &one_term);
        let m2 = simulate_layer(HwDesign::TtcVegetaM8, &cfg(), &two_terms);
        // Same kept fraction (both configurations keep 4 of 8 slots), but the two-term run
        // re-touches the output tile once more.
        assert_eq!(m1.effectual_macs, m2.effectual_macs);
        assert!(m2.energy.l1 > m1.energy.l1);
    }

    #[test]
    fn operand_gating_saves_mac_energy_on_sparse_activations() {
        let run = sparse_conv_layer(Some("4:8"));
        let ttc = simulate_layer(HwDesign::TtcVegetaM8, &cfg(), &run);
        // Activations are 50% dense, so gated MAC energy is half of ungated.
        let expected = ttc.effectual_macs * cfg().energy.mac_pj * 0.5;
        assert!((ttc.energy.mac - expected).abs() < 1e-6);
        let tc = simulate_layer(HwDesign::DenseTc, &cfg(), &run);
        assert!((tc.energy.mac - tc.dense_macs * cfg().energy.mac_pj).abs() < 1e-6);
    }

    #[test]
    fn memory_bound_kicks_in_for_tiny_compute() {
        // A wide, shallow GEMM where streaming the large output dominates: cycles should
        // equal the DRAM-bandwidth bound rather than the compute bound.
        let run = LayerRun {
            name: "tiny".to_string(),
            dims: (64, 4096, 64),
            weight_density: 0.05,
            activation_density: 1.0,
            tasd_side: OperandSide::Weights,
            tasd_config: Some(TasdConfig::parse("1:8").unwrap()),
            plan: None,
        };
        let c = cfg();
        let m = simulate_layer(HwDesign::TtcVegetaM8, &c, &run);
        let memory_cycles = (run.tasd_side_elements() * 0.125 * STRUCTURED_META_OVERHEAD
            + run.other_side_elements()
            + run.output_elements())
            / c.dram_words_per_cycle;
        assert!((m.cycles - memory_cycles).abs() / memory_cycles < 1e-9);
    }

    #[test]
    fn network_simulation_aggregates_layers() {
        let runs = vec![
            sparse_conv_layer(Some("2:8")),
            sparse_conv_layer(Some("1:8")),
        ];
        let net = simulate_network(HwDesign::TtcVegetaM8, &cfg(), &runs);
        assert_eq!(net.layers.len(), 2);
        let sum: f64 = net.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(net.total_cycles(), sum);
        assert_eq!(net.design, "TTC-VEGETA-M8");
    }

    #[test]
    fn edp_ordering_matches_paper_for_a_sparse_layer() {
        // For a representative sparse-ResNet-50 layer with a good TASD config (the layer is
        // 95% sparse, so layer-wise TASDER would pick 1:8), the paper's ordering is:
        // TTC-VEGETA-M8 (best or close) < DSTC < TC (worst).
        let run = sparse_conv_layer(Some("1:8"));
        let c = cfg();
        let tc = simulate_layer(HwDesign::DenseTc, &c, &run).edp(1.0);
        let dstc = simulate_layer(HwDesign::Dstc, &c, &run).edp(1.0);
        let ttc = simulate_layer(HwDesign::TtcVegetaM8, &c, &run).edp(1.0);
        assert!(ttc < tc);
        assert!(dstc < tc);
        // TTC is within the same ballpark as DSTC without the 35% area overhead.
        assert!(ttc < dstc * 3.0);
    }
}
