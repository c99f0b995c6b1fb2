//! Activation calibration: per-layer sparsity and pseudo-density statistics.
//!
//! TASD-A cannot inspect activations exhaustively at deployment time, so TASDER profiles
//! the model on a small calibration set (≈1000 images in the paper) and records, per
//! layer, the distribution of activation sparsity (ReLU networks) or pseudo-density
//! (GELU/Swish networks). Those statistics drive the per-layer configuration choice
//! (paper §4.3).

use crate::executable::Mlp;
use crate::network::NetworkSpec;
use tasd::ExecutionEngine;
use tasd_tensor::stats::RunningStats;
use tasd_tensor::{pseudo_density, sparsity_degree, Matrix, MatrixGenerator};

/// Fraction of a tensor's total magnitude that the pseudo-density statistic preserves
/// (paper §4.3 uses "a fixed percentage (e.g., 99%)"; 95% is the calibrated choice here,
/// matching how skewed the synthetic GELU distributions are).
pub const PSEUDO_DENSITY_PRESERVE: f64 = 0.95;

/// Summary of one layer's input-activation behaviour over the calibration set.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationStats {
    /// Layer name.
    pub layer: String,
    /// Mean activation sparsity degree across calibration batches.
    pub mean_sparsity: f64,
    /// Minimum observed sparsity (the conservative value TASD-A keys off by default —
    /// a layer is only as sparse as its densest batch).
    pub min_sparsity: f64,
    /// 99th-percentile *density* converted to sparsity, i.e. the sparsity that 99 % of
    /// batches meet or exceed.
    pub p01_sparsity: f64,
    /// Mean pseudo-density (fraction of elements needed to preserve 95 % of magnitude).
    pub mean_pseudo_density: f64,
    /// Whether this layer's input came from a sparsity-inducing (ReLU-family) activation.
    pub relu_input: bool,
}

impl ActivationStats {
    /// The *effective sparsity* TASD-A should use for this layer: observed sparsity for
    /// ReLU inputs, `1 - pseudo_density` for dense (GELU/Swish) inputs (paper §4.3).
    pub fn effective_sparsity(&self) -> f64 {
        if self.relu_input {
            self.min_sparsity
        } else {
            (1.0 - self.mean_pseudo_density).max(0.0)
        }
    }
}

/// The full calibration profile of a network: one [`ActivationStats`] per CONV/FC layer,
/// in network order.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationProfile {
    /// Per-layer statistics.
    pub layers: Vec<ActivationStats>,
    /// Number of calibration batches observed.
    pub num_batches: usize,
}

impl CalibrationProfile {
    /// Statistics for a layer by name.
    pub fn layer(&self, name: &str) -> Option<&ActivationStats> {
        self.layers.iter().find(|l| l.layer == name)
    }

    /// Profiles an executable MLP over calibration inputs split into `num_batches` equal
    /// batches. The calibration forward passes dispatch through `engine`.
    pub fn from_executable(
        engine: &ExecutionEngine,
        mlp: &Mlp,
        inputs: &Matrix,
        num_batches: usize,
    ) -> Self {
        let num_batches = num_batches.max(1);
        let batch_rows = (inputs.rows() / num_batches).max(1);
        let mut per_layer: Vec<(RunningStats, RunningStats)> = (0..mlp.num_layers())
            .map(|_| (RunningStats::new(), RunningStats::new()))
            .collect();
        let mut batches_done = 0usize;
        let mut start = 0usize;
        while start < inputs.rows() {
            let end = (start + batch_rows).min(inputs.rows());
            let batch = inputs.block(start, 0, end - start, inputs.cols());
            let trace = mlp.forward_trace(engine, &batch);
            for (li, layer_input) in trace.layer_inputs.iter().enumerate() {
                per_layer[li].0.push(sparsity_degree(layer_input));
                per_layer[li]
                    .1
                    .push(pseudo_density(layer_input, PSEUDO_DENSITY_PRESERVE));
            }
            batches_done += 1;
            start = end;
        }
        let layers = per_layer
            .into_iter()
            .enumerate()
            .map(|(li, (sparsity, pseudo))| {
                // The input of layer li is produced by layer li-1's activation; the very
                // first layer reads the raw network input (dense).
                let relu_input = li > 0 && mlp.layers()[li - 1].activation.induces_sparsity();
                ActivationStats {
                    layer: format!("fc{li}"),
                    mean_sparsity: sparsity.mean().unwrap_or(0.0),
                    min_sparsity: sparsity.min().unwrap_or(0.0),
                    p01_sparsity: sparsity.percentile(0.01).unwrap_or(0.0),
                    mean_pseudo_density: pseudo.mean().unwrap_or(1.0),
                    relu_input,
                }
            })
            .collect();
        CalibrationProfile {
            layers,
            num_batches: batches_done,
        }
    }

    /// Builds a calibration profile for a paper-scale [`NetworkSpec`] by sampling synthetic
    /// activation tensors that match each layer's recorded `input_activation_sparsity`
    /// (ReLU inputs) or a GELU-shaped dense distribution (non-ReLU inputs).
    ///
    /// This is the offline substitution for running ImageNet calibration batches through
    /// the real model: the statistics TASD-A consumes (sparsity / pseudo-density per layer
    /// with small batch-to-batch variation) are reproduced directly.
    pub fn synthetic(spec: &NetworkSpec, num_batches: usize, seed: u64) -> Self {
        let num_batches = num_batches.max(1);
        let mut gen = MatrixGenerator::seeded(seed);
        let layers = spec
            .layers
            .iter()
            .enumerate()
            .map(|(li, layer)| {
                let relu_input = layer.input_activation_sparsity > 0.0;
                let mut sparsity = RunningStats::new();
                let mut pseudo = RunningStats::new();
                for _ in 0..num_batches {
                    // Small sample of the layer's input activations; 64x(K up to 512)
                    // keeps calibration cheap while giving stable statistics.
                    let (_, _, k) = layer.gemm_dims(1);
                    let cols = k.clamp(16, 512);
                    let sample = if relu_input {
                        // Batch-to-batch jitter of a couple of percent, as in Fig. 6.
                        let jitter = (gen.unit() as f64 - 0.5) * 0.04;
                        let target = (layer.input_activation_sparsity + jitter).clamp(0.0, 0.999);
                        gen.sparse_normal(64, cols, target).map(|x| x.abs())
                    } else {
                        gen.gelu_activations(64, cols)
                    };
                    sparsity.push(sparsity_degree(&sample));
                    pseudo.push(pseudo_density(&sample, PSEUDO_DENSITY_PRESERVE));
                }
                ActivationStats {
                    layer: layer.name.clone(),
                    mean_sparsity: sparsity.mean().unwrap_or(0.0),
                    min_sparsity: sparsity.min().unwrap_or(0.0),
                    p01_sparsity: sparsity.percentile(0.01).unwrap_or(0.0),
                    mean_pseudo_density: pseudo.mean().unwrap_or(1.0),
                    relu_input: relu_input && li < usize::MAX,
                }
            })
            .collect();
        CalibrationProfile {
            layers,
            num_batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::layer::LayerSpec;

    #[test]
    fn executable_profile_sees_relu_sparsity() {
        let mlp = Mlp::new(&[16, 64, 32, 4], Activation::Relu, 3);
        let inputs = MatrixGenerator::seeded(5).normal(128, 16, 0.0, 1.0);
        let profile =
            CalibrationProfile::from_executable(ExecutionEngine::global(), &mlp, &inputs, 4);
        assert_eq!(profile.layers.len(), 3);
        assert_eq!(profile.num_batches, 4);
        // First layer reads dense network input.
        assert!(!profile.layers[0].relu_input);
        assert!(profile.layers[0].mean_sparsity < 0.05);
        // Hidden layers read ReLU outputs: roughly half sparse.
        for l in &profile.layers[1..] {
            assert!(l.relu_input);
            assert!(
                (0.2..0.8).contains(&l.mean_sparsity),
                "layer {} sparsity {}",
                l.layer,
                l.mean_sparsity
            );
            assert!(l.min_sparsity <= l.mean_sparsity + 1e-12);
            assert_eq!(l.effective_sparsity(), l.min_sparsity);
        }
    }

    #[test]
    fn gelu_network_uses_pseudo_density() {
        let mlp = Mlp::new(&[16, 64, 4], Activation::Gelu, 3);
        let inputs = MatrixGenerator::seeded(6).normal(64, 16, 0.0, 1.0);
        let profile =
            CalibrationProfile::from_executable(ExecutionEngine::global(), &mlp, &inputs, 2);
        let hidden = &profile.layers[1];
        // GELU input: no exact sparsity but meaningful pseudo-density < 1.
        assert!(!hidden.relu_input);
        assert!(hidden.mean_sparsity < 0.05);
        assert!(hidden.mean_pseudo_density < 0.95);
        assert!(hidden.effective_sparsity() > 0.0);
    }

    #[test]
    fn synthetic_profile_tracks_spec_sparsity() {
        let spec = NetworkSpec::new(
            "syn",
            vec![
                LayerSpec::linear("l0", 128, 128, 16, Activation::Relu),
                LayerSpec::linear("l1", 128, 128, 16, Activation::Relu)
                    .with_input_activation_sparsity(0.6),
                LayerSpec::linear("l2", 128, 128, 16, Activation::Gelu)
                    .with_input_activation_sparsity(0.3),
                LayerSpec::linear("l3", 128, 128, 16, Activation::None),
            ],
        );
        let profile = CalibrationProfile::synthetic(&spec, 8, 1);
        assert_eq!(profile.layers.len(), 4);
        assert!((profile.layer("l1").unwrap().mean_sparsity - 0.6).abs() < 0.05);
        assert!((profile.layer("l2").unwrap().mean_sparsity - 0.3).abs() < 0.05);
        // l3 reads a dense (no recorded sparsity) input -> pseudo-density path.
        let l3 = profile.layer("l3").unwrap();
        assert!(!l3.relu_input);
        assert!(l3.mean_pseudo_density <= 1.0);
        assert!(profile.layer("does-not-exist").is_none());
    }

    #[test]
    fn synthetic_profile_is_deterministic() {
        let spec = NetworkSpec::new(
            "syn",
            vec![LayerSpec::linear("l0", 64, 64, 8, Activation::Relu)
                .with_input_activation_sparsity(0.5)],
        );
        let a = CalibrationProfile::synthetic(&spec, 4, 9);
        let b = CalibrationProfile::synthetic(&spec, 4, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn effective_sparsity_switches_on_input_kind() {
        let relu = ActivationStats {
            layer: "a".into(),
            mean_sparsity: 0.5,
            min_sparsity: 0.45,
            p01_sparsity: 0.46,
            mean_pseudo_density: 0.2,
            relu_input: true,
        };
        assert_eq!(relu.effective_sparsity(), 0.45);
        let gelu = ActivationStats {
            relu_input: false,
            ..relu.clone()
        };
        assert!((gelu.effective_sparsity() - 0.8).abs() < 1e-12);
    }
}
