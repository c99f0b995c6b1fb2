//! Materialized weight tensors for a network spec.
//!
//! The paper takes pretrained weights from SparseZoo / TorchVision. Offline, this module
//! synthesizes weight matrices with the same *statistical structure* that matters to TASD:
//! Gaussian magnitudes, per-layer unstructured sparsity obtained by magnitude pruning (so
//! small weights are the zeros), or exact N:M structured sparsity for the structured-pruned
//! baselines.

use crate::network::NetworkSpec;
use std::collections::HashMap;
use tasd_tensor::{magnitude_prune, sparsity_degree, Matrix, MatrixGenerator, NmPattern};

/// How weight values are initialized before pruning.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeightInit {
    /// Standard normal scaled by `1/sqrt(fan_in)` (Kaiming-style), the default.
    #[default]
    Kaiming,
    /// Standard normal with the given standard deviation.
    Normal(f32),
}

/// The pruning regime applied when materializing weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruningRegime {
    /// Keep the layer's `weight_sparsity` from the spec via unstructured magnitude pruning.
    UnstructuredFromSpec,
    /// Ignore the spec and keep the weights dense.
    Dense,
    /// Prune every layer to the given N:M structured pattern (HW-aware structured pruning,
    /// the baseline that requires fine-tuning in the paper).
    Structured(NmPattern),
}

/// Materialized weight matrices for every layer of a [`NetworkSpec`], keyed by layer name.
///
/// Weight matrices use the GEMM orientation `(K, N)` so that a layer computes
/// `output = input(M×K) · W(K×N)`.
#[derive(Debug, Clone)]
pub struct WeightSet {
    weights: HashMap<String, Matrix>,
    order: Vec<String>,
}

impl WeightSet {
    /// Materializes weights for `spec` with the given pruning regime, deterministically
    /// from `seed`.
    pub fn materialize(
        spec: &NetworkSpec,
        regime: PruningRegime,
        init: WeightInit,
        seed: u64,
    ) -> Self {
        let entries: Vec<(String, Matrix)> = spec
            .layers
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let (k, n) = layer.kind.weight_shape();
                let mut gen = MatrixGenerator::seeded(seed.wrapping_add(i as u64 * 7919));
                let std = match init {
                    WeightInit::Kaiming => (2.0 / k as f32).sqrt(),
                    WeightInit::Normal(s) => s,
                };
                let dense = gen.normal(k, n, 0.0, std);
                let pruned = match regime {
                    PruningRegime::Dense => dense,
                    PruningRegime::UnstructuredFromSpec => {
                        magnitude_prune(&dense, layer.weight_sparsity)
                    }
                    PruningRegime::Structured(pattern) => pattern.view(&dense),
                };
                (layer.name.clone(), pruned)
            })
            .collect();
        let order = spec.layers.iter().map(|l| l.name.clone()).collect();
        WeightSet {
            weights: entries.into_iter().collect(),
            order,
        }
    }

    /// The weight matrix of a layer, by name.
    pub fn weight(&self, layer_name: &str) -> Option<&Matrix> {
        self.weights.get(layer_name)
    }

    /// Mutable access to the weight matrix of a layer, by name.
    pub fn weight_mut(&mut self, layer_name: &str) -> Option<&mut Matrix> {
        self.weights.get_mut(layer_name)
    }

    /// Replaces a layer's weights (used when TASDER installs decomposed weights).
    ///
    /// # Panics
    ///
    /// Panics if the layer does not exist or the replacement has a different shape.
    pub fn replace(&mut self, layer_name: &str, new_weights: Matrix) {
        let slot = self
            .weights
            .get_mut(layer_name)
            .unwrap_or_else(|| panic!("unknown layer {layer_name}"));
        assert_eq!(
            slot.shape(),
            new_weights.shape(),
            "replacement weight shape mismatch for {layer_name}"
        );
        *slot = new_weights;
    }

    /// Layer names in network order.
    pub fn layer_names(&self) -> &[String] {
        &self.order
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` when the set holds no layers.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterator over `(name, weights)` in network order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.order
            .iter()
            .map(move |n| (n.as_str(), &self.weights[n]))
    }

    /// Per-layer weight sparsity degrees, in network order.
    pub fn sparsity_profile(&self) -> Vec<f64> {
        self.order
            .iter()
            .map(|n| sparsity_degree(&self.weights[n]))
            .collect()
    }

    /// Overall sparsity across all layers (element-weighted).
    pub fn overall_sparsity(&self) -> f64 {
        let total: usize = self.order.iter().map(|n| self.weights[n].len()).sum();
        if total == 0 {
            return 0.0;
        }
        let zeros: usize = self
            .order
            .iter()
            .map(|n| self.weights[n].count_zeros())
            .sum();
        zeros as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::LayerSpec;
    use tasd_tensor::Conv2dDims;

    fn spec() -> NetworkSpec {
        NetworkSpec::new(
            "t",
            vec![
                LayerSpec::conv(
                    "c1",
                    Conv2dDims::square(8, 16, 16, 3, 1, 1),
                    Activation::Relu,
                )
                .with_weight_sparsity(0.9),
                LayerSpec::linear("f1", 64, 32, 4, Activation::Relu).with_weight_sparsity(0.5),
                LayerSpec::linear("f2", 32, 10, 4, Activation::None),
            ],
        )
    }

    #[test]
    fn materialize_respects_spec_sparsity() {
        let ws = WeightSet::materialize(
            &spec(),
            PruningRegime::UnstructuredFromSpec,
            WeightInit::Kaiming,
            1,
        );
        assert_eq!(ws.len(), 3);
        let profile = ws.sparsity_profile();
        assert!(
            (profile[0] - 0.9).abs() < 5e-3,
            "layer0 sparsity {}",
            profile[0]
        );
        assert!((profile[1] - 0.5).abs() < 5e-3);
        assert!(profile[2] < 1e-6);
        assert_eq!(ws.weight("c1").unwrap().shape(), (8 * 9, 16));
        assert_eq!(ws.weight("f1").unwrap().shape(), (64, 32));
    }

    #[test]
    fn dense_regime_ignores_spec() {
        let ws = WeightSet::materialize(&spec(), PruningRegime::Dense, WeightInit::Kaiming, 1);
        assert!(ws.overall_sparsity() < 1e-6);
    }

    #[test]
    fn structured_regime_satisfies_pattern() {
        let p = NmPattern::new(2, 4).unwrap();
        let ws = WeightSet::materialize(
            &spec(),
            PruningRegime::Structured(p),
            WeightInit::Kaiming,
            3,
        );
        for (_, w) in ws.iter() {
            assert!(p.is_satisfied_by(w));
        }
        assert!((ws.overall_sparsity() - 0.5).abs() < 0.01);
    }

    #[test]
    fn materialization_is_deterministic() {
        let a = WeightSet::materialize(&spec(), PruningRegime::Dense, WeightInit::Kaiming, 7);
        let b = WeightSet::materialize(&spec(), PruningRegime::Dense, WeightInit::Kaiming, 7);
        for ((_, wa), (_, wb)) in a.iter().zip(b.iter()) {
            assert_eq!(wa, wb);
        }
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let ws = WeightSet::materialize(&spec(), PruningRegime::Dense, WeightInit::Kaiming, 5);
        // fan_in 72 for c1 vs 32 for f2 -> smaller std for c1.
        let std = |m: &Matrix| {
            let mean = m.sum() / m.len() as f32;
            (m.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / m.len() as f32).sqrt()
        };
        assert!(std(ws.weight("c1").unwrap()) < std(ws.weight("f2").unwrap()));
    }

    #[test]
    fn replace_validates_shape() {
        let mut ws = WeightSet::materialize(&spec(), PruningRegime::Dense, WeightInit::Kaiming, 2);
        let new = Matrix::zeros(64, 32);
        ws.replace("f1", new.clone());
        assert_eq!(ws.weight("f1").unwrap(), &new);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn replace_rejects_wrong_shape() {
        let mut ws = WeightSet::materialize(&spec(), PruningRegime::Dense, WeightInit::Kaiming, 2);
        ws.replace("f1", Matrix::zeros(2, 2));
    }

    #[test]
    fn iteration_order_matches_network() {
        let ws = WeightSet::materialize(&spec(), PruningRegime::Dense, WeightInit::Kaiming, 2);
        let names: Vec<&str> = ws.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["c1", "f1", "f2"]);
    }
}
