//! The result of a TASDER optimization: per-layer TASD assignments.

use tasd::TasdConfig;
use tasd_dnn::quality::{LayerDamage, ACCURACY_RETENTION_THRESHOLD};
use tasd_dnn::{NetworkSpec, ProxyAccuracyModel};

/// Which tensor of a layer the configuration applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TasdSide {
    /// Weight tensor (TASD-W, applied offline).
    Weights,
    /// Input-activation tensor (TASD-A, decomposed dynamically by the TASD units).
    Activations,
}

/// The TASD decision for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerAssignment {
    /// Layer name.
    pub layer: String,
    /// The chosen configuration, or `None` to run the layer densely.
    pub config: Option<TasdConfig>,
    /// Estimated damage the configuration causes to this layer's tensor.
    pub damage: LayerDamage,
    /// The fraction of the decomposed tensor that is kept and computed on
    /// (min of the configuration's admitted density and the tensor's actual density).
    pub kept_fraction: f64,
}

impl LayerAssignment {
    /// An assignment that leaves the layer dense and undamaged.
    pub fn dense(layer: impl Into<String>) -> Self {
        LayerAssignment {
            layer: layer.into(),
            config: None,
            damage: LayerDamage::none(),
            kept_fraction: 1.0,
        }
    }
}

/// A full model transformation: one assignment per CONV/FC layer (network order), plus the
/// quality model used to judge it.
#[derive(Debug, Clone, PartialEq)]
pub struct TasdTransform {
    /// Which side of every layer the transform decomposes.
    pub side: TasdSide,
    /// Per-layer assignments, in network order.
    pub assignments: Vec<LayerAssignment>,
    /// The quality model the optimizer used.
    pub quality_model: ProxyAccuracyModel,
}

impl TasdTransform {
    /// Creates an all-dense transform for `spec` (the starting point of every search).
    pub fn all_dense(
        spec: &NetworkSpec,
        side: TasdSide,
        quality_model: ProxyAccuracyModel,
    ) -> Self {
        TasdTransform {
            side,
            assignments: spec
                .layers
                .iter()
                .map(|l| LayerAssignment::dense(&l.name))
                .collect(),
            quality_model,
        }
    }

    /// The assignment for a layer, by name.
    pub fn assignment(&self, layer: &str) -> Option<&LayerAssignment> {
        self.assignments.iter().find(|a| a.layer == layer)
    }

    /// Number of layers that received a (non-dense) TASD configuration.
    pub fn num_tasd_layers(&self) -> usize {
        self.assignments
            .iter()
            .filter(|a| a.config.as_ref().is_some_and(|c| !c.is_dense()))
            .count()
    }

    /// Estimated accuracy of the transformed model under the proxy quality model.
    pub fn estimated_accuracy(&self) -> f64 {
        let damage: Vec<LayerDamage> = self.assignments.iter().map(|a| a.damage).collect();
        self.quality_model.estimate(&damage)
    }

    /// Estimated accuracy retention relative to the original model.
    pub fn estimated_retention(&self) -> f64 {
        let damage: Vec<LayerDamage> = self.assignments.iter().map(|a| a.damage).collect();
        self.quality_model.retention(&damage)
    }

    /// Whether the transform keeps ≥ 99 % of the original model quality.
    pub fn meets_quality_threshold(&self) -> bool {
        self.estimated_retention() >= ACCURACY_RETENTION_THRESHOLD
    }

    /// MAC reduction of the transformed model over dense execution of `spec`
    /// (the metric of paper Fig. 20): `1 − Σ keptₗ·MACsₗ / Σ MACsₗ`.
    ///
    /// # Panics
    ///
    /// Panics if `spec` has a different number of layers than the transform.
    pub fn mac_reduction(&self, spec: &NetworkSpec) -> f64 {
        assert_eq!(
            spec.num_layers(),
            self.assignments.len(),
            "transform does not match the network"
        );
        let total: f64 = spec.iter().map(|l| l.dense_macs(1) as f64).sum();
        if total == 0.0 {
            return 0.0;
        }
        let kept: f64 = spec
            .iter()
            .zip(&self.assignments)
            .map(|(l, a)| l.dense_macs(1) as f64 * a.kept_fraction)
            .sum();
        1.0 - kept / total
    }

    /// The MAC-weighted mean *approximated sparsity* of the transform — the x-axis of the
    /// paper's Fig. 14 (the sparsity the chosen configurations enforce, independent of how
    /// sparse the tensors already were).
    pub fn approximated_sparsity(&self, spec: &NetworkSpec) -> f64 {
        assert_eq!(
            spec.num_layers(),
            self.assignments.len(),
            "transform does not match the network"
        );
        let total: f64 = spec.iter().map(|l| l.dense_macs(1) as f64).sum();
        if total == 0.0 {
            return 0.0;
        }
        let weighted: f64 = spec
            .iter()
            .zip(&self.assignments)
            .map(|(l, a)| {
                let approx = a
                    .config
                    .as_ref()
                    .map_or(0.0, TasdConfig::approximated_sparsity);
                l.dense_macs(1) as f64 * approx
            })
            .sum();
        weighted / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_dnn::{Activation, LayerSpec};

    fn spec() -> NetworkSpec {
        NetworkSpec::new(
            "t",
            vec![
                LayerSpec::linear("a", 128, 128, 64, Activation::Relu),
                LayerSpec::linear("b", 128, 128, 64, Activation::None),
            ],
        )
    }

    fn quality() -> ProxyAccuracyModel {
        ProxyAccuracyModel::new(0.76)
    }

    #[test]
    fn all_dense_transform_is_lossless_and_free() {
        let t = TasdTransform::all_dense(&spec(), TasdSide::Weights, quality());
        assert_eq!(t.num_tasd_layers(), 0);
        assert_eq!(t.estimated_accuracy(), 0.76);
        assert!(t.meets_quality_threshold());
        assert_eq!(t.mac_reduction(&spec()), 0.0);
        assert_eq!(t.approximated_sparsity(&spec()), 0.0);
    }

    #[test]
    fn assignments_drive_mac_reduction() {
        let mut t = TasdTransform::all_dense(&spec(), TasdSide::Weights, quality());
        t.assignments[0] = LayerAssignment {
            layer: "a".to_string(),
            config: Some(TasdConfig::parse("2:8").unwrap()),
            damage: LayerDamage::none(),
            kept_fraction: 0.25,
        };
        // Both layers have equal MACs, so reducing one to 25% gives 37.5% overall.
        assert!((t.mac_reduction(&spec()) - 0.375).abs() < 1e-12);
        assert_eq!(t.num_tasd_layers(), 1);
        assert!((t.approximated_sparsity(&spec()) - 0.375).abs() < 1e-12);
        assert!(t.assignment("a").unwrap().config.is_some());
        assert!(t.assignment("missing").is_none());
    }

    #[test]
    fn damage_lowers_estimated_accuracy() {
        let mut t = TasdTransform::all_dense(&spec(), TasdSide::Activations, quality());
        t.assignments[1].damage = LayerDamage {
            dropped_nonzero_fraction: 0.5,
            dropped_magnitude_fraction: 0.4,
        };
        assert!(t.estimated_accuracy() < 0.76);
        assert!(t.estimated_retention() < 1.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_spec_panics() {
        let t = TasdTransform::all_dense(&spec(), TasdSide::Weights, quality());
        let other = NetworkSpec::new("other", vec![]);
        let _ = t.mac_reduction(&other);
    }
}
