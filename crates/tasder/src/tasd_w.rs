//! TASD-W: selecting weight-side configurations (paper §4.2).
//!
//! Weights are static, so their decomposition error can be measured exactly offline. Two
//! strategies are provided, matching the paper:
//!
//! * **network-wise** — one configuration for every layer, found by exhaustively trying the
//!   hardware's menu and keeping the most aggressive option that preserves quality;
//! * **layer-wise** — the greedy algorithm: measure the dropped-non-zero fraction of every
//!   (layer, configuration) pair, sort ascending, and apply configurations in that order —
//!   upgrading a layer only when the running quality estimate stays above 99 %.

use crate::transform::{LayerAssignment, TasdSide, TasdTransform};
use tasd::{ExecutionEngine, PatternMenu, TasdConfig};
use tasd_dnn::quality::LayerDamage;
use tasd_dnn::{NetworkSpec, ProxyAccuracyModel};
use tasd_tensor::{
    dropped_magnitude_fraction, dropped_nonzero_fraction, magnitude_prune, Matrix, MatrixGenerator,
};

/// How many weight rows are sampled when estimating a layer's decomposition damage.
/// Sampling keeps the optimizer's runtime at "a few seconds per model" (paper §4.2) even
/// for BERT-scale layers; the dropped-fraction estimate converges quickly with row count.
const DAMAGE_SAMPLE_ROWS: usize = 256;

/// Measured damage of applying one configuration to one layer's weights.
#[derive(Debug, Clone)]
pub struct WeightCandidate {
    /// Index of the layer in the network spec.
    pub layer_index: usize,
    /// The configuration evaluated.
    pub config: TasdConfig,
    /// Estimated damage to the layer's weight tensor.
    pub damage: LayerDamage,
    /// Fraction of the dense compute the hardware still executes under this configuration.
    pub kept_fraction: f64,
}

/// Synthesizes a representative sample of a layer's weight tensor: Kaiming-scaled normal
/// values magnitude-pruned to the layer's recorded sparsity. Row/column counts are capped
/// at [`DAMAGE_SAMPLE_ROWS`] for speed; the per-block statistics that determine TASD damage
/// are identical in distribution to the full tensor.
fn sample_weights(spec: &NetworkSpec, layer_index: usize, seed: u64) -> Matrix {
    let layer = &spec.layers[layer_index];
    let (k, n) = {
        let (_, n, k) = layer.gemm_dims(1);
        (k, n)
    };
    let rows = k.clamp(1, DAMAGE_SAMPLE_ROWS);
    let cols = n.clamp(1, DAMAGE_SAMPLE_ROWS);
    let mut gen = MatrixGenerator::seeded(seed ^ (layer_index as u64).wrapping_mul(0x9E37_79B9));
    let dense = gen.normal(rows, cols, 0.0, (2.0 / k.max(1) as f32).sqrt());
    magnitude_prune(&dense, layer.weight_sparsity)
}

/// Evaluates the damage of every (layer, configuration) pair, in order. Decompositions
/// dispatch through `engine` as *prepared* series: re-runs of the optimizer (e.g.
/// layer-wise after network-wise) skip re-decomposition entirely, and an engine
/// shared with the serving path ([`Tasder::with_engine`](crate::Tasder::with_engine))
/// comes out of candidate evaluation with its prepared cache already warm — the first
/// serving batch against an optimizer-chosen configuration performs zero decompositions
/// and zero format conversions.
pub fn evaluate_candidates(
    engine: &ExecutionEngine,
    spec: &NetworkSpec,
    configs: &[TasdConfig],
    seed: u64,
) -> Vec<WeightCandidate> {
    let pairs: Vec<(usize, TasdConfig)> = (0..spec.num_layers())
        .flat_map(|li| configs.iter().cloned().map(move |c| (li, c)))
        .collect();
    pairs
        .iter()
        .map(|(li, config)| {
            let weights = sample_weights(spec, *li, seed);
            let series = engine.prepare(&weights, config);
            let approx = series.series().reconstruct();
            let damage = LayerDamage {
                dropped_nonzero_fraction: dropped_nonzero_fraction(&weights, &approx),
                dropped_magnitude_fraction: dropped_magnitude_fraction(&weights, &approx),
            };
            WeightCandidate {
                layer_index: *li,
                config: config.clone(),
                damage,
                kept_fraction: if config.is_dense() {
                    1.0
                } else {
                    // An N:M engine processes N slots per block regardless of how many of
                    // the stored values are actually non-zero.
                    config.kept_density()
                },
            }
        })
        .collect()
}

/// Network-wise TASD-W: the same configuration for every layer, chosen exhaustively as the
/// most aggressive (lowest kept density) menu option that keeps the quality estimate above
/// the 99 % threshold. Falls back to the all-dense transform when nothing qualifies.
pub fn network_wise(
    engine: &ExecutionEngine,
    spec: &NetworkSpec,
    menu: &PatternMenu,
    max_terms: usize,
    quality: ProxyAccuracyModel,
    seed: u64,
) -> TasdTransform {
    let mut configs = menu.configurations(max_terms);
    configs.retain(|c| !c.is_dense() && c.kept_density() < 1.0 - 1e-9);
    // Most aggressive first.
    configs.sort_by(|a, b| {
        a.kept_density()
            .partial_cmp(&b.kept_density())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for config in configs {
        let transform = apply_uniform(engine, spec, &config, quality, seed);
        if transform.meets_quality_threshold() {
            return transform;
        }
    }
    TasdTransform::all_dense(spec, TasdSide::Weights, quality)
}

/// Builds the transform that applies `config` to every layer (no quality filtering) —
/// used by the network-wise search and by the Fig. 14 accuracy-vs-sparsity sweeps.
pub fn apply_uniform(
    engine: &ExecutionEngine,
    spec: &NetworkSpec,
    config: &TasdConfig,
    quality: ProxyAccuracyModel,
    seed: u64,
) -> TasdTransform {
    let candidates = evaluate_candidates(engine, spec, std::slice::from_ref(config), seed);
    let mut transform = TasdTransform::all_dense(spec, TasdSide::Weights, quality);
    for cand in candidates {
        transform.assignments[cand.layer_index] = LayerAssignment {
            layer: spec.layers[cand.layer_index].name.clone(),
            config: Some(cand.config.clone()),
            damage: cand.damage,
            kept_fraction: cand.kept_fraction,
        };
    }
    transform
}

/// Layer-wise TASD-W: the greedy dropped-non-zeros algorithm of paper §4.2.
///
/// All (layer, configuration) pairs are ranked by their dropped-non-zero fraction
/// (ascending, ties broken toward more aggressive configurations). Walking that order, a
/// pair replaces the layer's current assignment if it reduces the layer's kept compute and
/// the whole-model quality estimate stays at or above 99 %.
pub fn layer_wise(
    engine: &ExecutionEngine,
    spec: &NetworkSpec,
    menu: &PatternMenu,
    max_terms: usize,
    quality: ProxyAccuracyModel,
    seed: u64,
) -> TasdTransform {
    let mut configs = menu.configurations(max_terms);
    configs.retain(|c| !c.is_dense() && c.kept_density() < 1.0 - 1e-9);
    let mut candidates = evaluate_candidates(engine, spec, &configs, seed);
    candidates.sort_by(|a, b| {
        a.damage
            .dropped_nonzero_fraction
            .partial_cmp(&b.damage.dropped_nonzero_fraction)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.kept_fraction
                    .partial_cmp(&b.kept_fraction)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });

    let mut transform = TasdTransform::all_dense(spec, TasdSide::Weights, quality);
    for cand in candidates {
        let current = &transform.assignments[cand.layer_index];
        if cand.kept_fraction >= current.kept_fraction {
            continue; // Not an improvement in compute.
        }
        let previous = current.clone();
        transform.assignments[cand.layer_index] = LayerAssignment {
            layer: spec.layers[cand.layer_index].name.clone(),
            config: Some(cand.config.clone()),
            damage: cand.damage,
            kept_fraction: cand.kept_fraction,
        };
        if !transform.meets_quality_threshold() {
            transform.assignments[cand.layer_index] = previous;
        }
    }
    transform
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_dnn::Activation;
    use tasd_dnn::LayerSpec;

    fn quality() -> ProxyAccuracyModel {
        ProxyAccuracyModel::new(0.761)
    }

    fn engine() -> &'static ExecutionEngine {
        ExecutionEngine::global()
    }

    /// A per-layer sensitivity appropriate for a 2–3 layer toy model (the library default
    /// of 0.01 is calibrated for ~50-layer ImageNet networks, where the damage budget is
    /// shared across many layers).
    fn strict_quality() -> ProxyAccuracyModel {
        ProxyAccuracyModel::new(0.761).with_sensitivity(0.3)
    }

    /// A small model with very sparse big layers and a denser first layer, mimicking the
    /// SparseZoo profile shape.
    fn sparse_spec() -> NetworkSpec {
        NetworkSpec::new(
            "sparse",
            vec![
                LayerSpec::linear("first", 256, 128, 64, Activation::Relu)
                    .with_weight_sparsity(0.55),
                LayerSpec::linear("mid", 512, 512, 64, Activation::Relu).with_weight_sparsity(0.95),
                LayerSpec::linear("late", 512, 256, 64, Activation::None)
                    .with_weight_sparsity(0.97),
            ],
        )
    }

    /// A fully dense model (nothing for TASD-W to exploit without hurting accuracy).
    fn dense_spec() -> NetworkSpec {
        NetworkSpec::new(
            "dense",
            vec![
                LayerSpec::linear("a", 256, 256, 64, Activation::Relu),
                LayerSpec::linear("b", 256, 256, 64, Activation::None),
            ],
        )
    }

    #[test]
    fn candidate_damage_tracks_sparsity() {
        let spec = sparse_spec();
        let cfg = vec![TasdConfig::parse("2:8").unwrap()];
        let cands = evaluate_candidates(engine(), &spec, &cfg, 1);
        assert_eq!(cands.len(), 3);
        // The 95/97% sparse layers barely lose anything under 2:8; the 55% sparse layer
        // loses a lot.
        let first = &cands[0];
        let late = &cands[2];
        assert!(first.damage.dropped_nonzero_fraction > 0.2);
        assert!(late.damage.dropped_nonzero_fraction < 0.05);
        // Greedy extraction keeps the largest magnitudes.
        for c in &cands {
            assert!(
                c.damage.dropped_magnitude_fraction <= c.damage.dropped_nonzero_fraction + 1e-12
            );
        }
    }

    #[test]
    fn layer_wise_exploits_sparse_layers_and_protects_dense_ones() {
        let spec = sparse_spec();
        let menu = PatternMenu::vegeta_m8();
        let t = layer_wise(engine(), &spec, &menu, 2, strict_quality(), 3);
        assert!(t.meets_quality_threshold());
        // The very sparse layers must get aggressive configs.
        let late = t.assignment("late").unwrap();
        assert!(late.config.is_some());
        assert!(late.kept_fraction <= 0.25, "kept {}", late.kept_fraction);
        // Overall MAC reduction should be substantial (big layers are 95%+ sparse).
        assert!(
            t.mac_reduction(&spec) > 0.5,
            "reduction {}",
            t.mac_reduction(&spec)
        );
        // The dense-ish first layer must not be crushed to 1:8.
        let first = t.assignment("first").unwrap();
        assert!(first.kept_fraction > 0.2);
    }

    #[test]
    fn layer_wise_beats_or_matches_network_wise() {
        let spec = sparse_spec();
        let menu = PatternMenu::vegeta_m8();
        let lw = layer_wise(engine(), &spec, &menu, 2, quality(), 3);
        let nw = network_wise(engine(), &spec, &menu, 2, quality(), 3);
        assert!(nw.meets_quality_threshold());
        assert!(
            lw.mac_reduction(&spec) >= nw.mac_reduction(&spec) - 1e-9,
            "layer-wise {} vs network-wise {}",
            lw.mac_reduction(&spec),
            nw.mac_reduction(&spec)
        );
    }

    #[test]
    fn dense_model_is_left_untouched_by_tasd_w() {
        let spec = dense_spec();
        let menu = PatternMenu::vegeta_m8();
        let t = layer_wise(engine(), &spec, &menu, 2, strict_quality(), 5);
        // Any structured view of dense weights drops a large share of the weights; quality
        // collapses, so the optimizer must refuse.
        assert!(t.meets_quality_threshold());
        assert!(
            t.mac_reduction(&spec) < 0.05,
            "reduction {}",
            t.mac_reduction(&spec)
        );
        let nw = network_wise(engine(), &spec, &menu, 2, strict_quality(), 5);
        assert_eq!(nw.num_tasd_layers(), 0);
    }

    #[test]
    fn apply_uniform_assigns_every_layer() {
        let spec = sparse_spec();
        let cfg = TasdConfig::parse("4:8+1:8").unwrap();
        let t = apply_uniform(engine(), &spec, &cfg, quality(), 7);
        assert_eq!(t.num_tasd_layers(), 3);
        assert!(t
            .assignments
            .iter()
            .all(|a| a.config.as_ref() == Some(&cfg)));
        assert!((t.approximated_sparsity(&spec) - cfg.approximated_sparsity()).abs() < 1e-9);
    }

    #[test]
    fn more_aggressive_uniform_configs_hurt_quality_more() {
        let spec = sparse_spec();
        let gentle = apply_uniform(
            engine(),
            &spec,
            &TasdConfig::parse("6:8").unwrap(),
            quality(),
            7,
        );
        let harsh = apply_uniform(
            engine(),
            &spec,
            &TasdConfig::parse("1:8").unwrap(),
            quality(),
            7,
        );
        assert!(gentle.estimated_accuracy() >= harsh.estimated_accuracy());
    }

    #[test]
    fn stc_menu_limits_what_layer_wise_can_do() {
        let spec = sparse_spec();
        let vegeta = layer_wise(engine(), &spec, &PatternMenu::vegeta_m8(), 2, quality(), 3);
        let stc = layer_wise(engine(), &spec, &PatternMenu::stc_m4(), 1, quality(), 3);
        // The flexible menu reaches at least the MAC reduction of the fixed 2:4 menu.
        assert!(vegeta.mac_reduction(&spec) >= stc.mac_reduction(&spec) - 1e-9);
    }
}
