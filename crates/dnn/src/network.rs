//! Network specifications: an ordered collection of CONV/FC layers.

use crate::layer::LayerSpec;
use std::fmt;

/// A network specification: the ordered CONV/FC layers of a model, with their geometry,
/// activations, and sparsity profile.
///
/// A `NetworkSpec` is the unit TASDER optimizes over and the unit the accelerator model
/// simulates. It does **not** hold weight values — materialize those with
/// [`crate::WeightSet`] when an experiment needs actual tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Model name (e.g. `"resnet50"`, `"bert-base"`).
    pub name: String,
    /// Ordered CONV/FC layers.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// Creates a network spec from its layers.
    pub fn new(name: impl Into<String>, layers: Vec<LayerSpec>) -> Self {
        NetworkSpec {
            name: name.into(),
            layers,
        }
    }

    /// Number of CONV/FC layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Iterator over the layers.
    pub fn iter(&self) -> std::slice::Iter<'_, LayerSpec> {
        self.layers.iter()
    }

    /// Total dense MACs for a batch of `batch` inputs.
    pub fn total_dense_macs(&self, batch: usize) -> u64 {
        self.layers.iter().map(|l| l.dense_macs(batch)).sum()
    }

    /// Total number of weight parameters across CONV/FC layers.
    pub fn total_weight_params(&self) -> usize {
        self.layers.iter().map(LayerSpec::weight_params).sum()
    }

    /// Overall weight sparsity of the model: the parameter-weighted mean of per-layer
    /// sparsity degrees.
    pub fn overall_weight_sparsity(&self) -> f64 {
        let total = self.total_weight_params();
        if total == 0 {
            return 0.0;
        }
        let zeros: f64 = self
            .layers
            .iter()
            .map(|l| l.weight_params() as f64 * l.weight_sparsity)
            .sum();
        zeros / total as f64
    }

    /// Returns `true` if any layer is followed by a sparsity-inducing activation (ReLU
    /// family). GELU/Swish-only networks need the pseudo-density heuristic for TASD-A.
    pub fn has_relu_activations(&self) -> bool {
        self.layers.iter().any(|l| l.activation.induces_sparsity())
    }

    /// Looks up a layer by name.
    pub fn layer(&self, name: &str) -> Option<&LayerSpec> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Index of a layer by name.
    pub fn layer_index(&self, name: &str) -> Option<usize> {
        self.layers.iter().position(|l| l.name == name)
    }

    /// Applies a uniform weight sparsity to every layer, returning the modified spec.
    /// Per-layer profiles (closer to real pruned models) are built in `tasd-models`.
    #[must_use]
    pub fn with_uniform_weight_sparsity(mut self, sparsity: f64) -> Self {
        for l in &mut self.layers {
            l.weight_sparsity = sparsity.clamp(0.0, 1.0);
        }
        self
    }
}

impl fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} layers, {:.1} GMACs, {:.1} M params, {:.0}% weight sparsity",
            self.name,
            self.num_layers(),
            self.total_dense_macs(1) as f64 / 1e9,
            self.total_weight_params() as f64 / 1e6,
            self.overall_weight_sparsity() * 100.0
        )
    }
}

impl<'a> IntoIterator for &'a NetworkSpec {
    type Item = &'a LayerSpec;
    type IntoIter = std::slice::Iter<'a, LayerSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.layers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use tasd_tensor::Conv2dDims;

    fn tiny_net() -> NetworkSpec {
        NetworkSpec::new(
            "tiny",
            vec![
                LayerSpec::conv(
                    "conv1",
                    Conv2dDims::square(3, 16, 32, 3, 1, 1),
                    Activation::Relu,
                ),
                LayerSpec::linear("fc1", 16, 64, 1024, Activation::Relu).with_weight_sparsity(0.9),
                LayerSpec::linear("fc2", 64, 10, 1024, Activation::None).with_weight_sparsity(0.5),
            ],
        )
    }

    #[test]
    fn totals_aggregate_layers() {
        let net = tiny_net();
        assert_eq!(net.num_layers(), 3);
        let expected_macs: u64 = net.layers.iter().map(|l| l.dense_macs(1)).sum();
        assert_eq!(net.total_dense_macs(1), expected_macs);
        assert_eq!(net.total_weight_params(), 3 * 9 * 16 + 16 * 64 + 64 * 10);
    }

    #[test]
    fn overall_sparsity_is_parameter_weighted() {
        let net = tiny_net();
        let params = [3 * 9 * 16, 16 * 64, 64 * 10];
        let expected = (params[0] as f64 * 0.0 + params[1] as f64 * 0.9 + params[2] as f64 * 0.5)
            / params.iter().sum::<usize>() as f64;
        assert!((net.overall_weight_sparsity() - expected).abs() < 1e-12);
    }

    #[test]
    fn lookup_by_name() {
        let net = tiny_net();
        assert!(net.layer("fc1").is_some());
        assert_eq!(net.layer_index("fc2"), Some(2));
        assert!(net.layer("missing").is_none());
    }

    #[test]
    fn uniform_sparsity_override() {
        let net = tiny_net().with_uniform_weight_sparsity(0.8);
        assert!(net.layers.iter().all(|l| l.weight_sparsity == 0.8));
        assert!((net.overall_weight_sparsity() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn relu_detection() {
        let net = tiny_net();
        assert!(net.has_relu_activations());
        let gelu_net = NetworkSpec::new(
            "gelu-only",
            vec![LayerSpec::linear("fc", 8, 8, 4, Activation::Gelu)],
        );
        assert!(!gelu_net.has_relu_activations());
    }

    #[test]
    fn display_summarizes() {
        let s = tiny_net().to_string();
        assert!(s.contains("tiny") && s.contains("3 layers"));
    }

    #[test]
    fn empty_network_is_well_behaved() {
        let net = NetworkSpec::new("empty", vec![]);
        assert_eq!(net.total_dense_macs(1), 0);
        assert_eq!(net.overall_weight_sparsity(), 0.0);
        assert!(!net.has_relu_activations());
    }
}
