//! Activation functions and their sparsity behaviour.

use std::fmt;
use tasd_tensor::Matrix;

/// Activation function applied after a CONV/FC layer.
///
/// The distinction that matters for TASD-A is whether the function produces *exact zeros*
/// (ReLU family → unstructured activation sparsity, handled with the sparsity-degree
/// heuristic) or not (GELU/Swish → dense activations, handled with the pseudo-density
/// heuristic, paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// No activation (e.g. the last layer, or an internal projection).
    #[default]
    None,
    /// Rectified linear unit: `max(0, x)`.
    Relu,
    /// ReLU clipped at 6 (MobileNet-style).
    Relu6,
    /// Gaussian error linear unit (BERT, ViT, ConvNeXt). Produces no exact zeros.
    Gelu,
    /// Swish / SiLU: `x * sigmoid(x)` (EfficientNet). Produces no exact zeros.
    Swish,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply_scalar(&self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Relu6 => x.clamp(0.0, 6.0),
            Activation::Gelu => tasd_tensor::random::gelu(x),
            Activation::Swish => x * sigmoid(x),
        }
    }

    /// Applies the activation element-wise, returning a new matrix.
    pub fn apply(&self, m: &Matrix) -> Matrix {
        match self {
            Activation::None => m.clone(),
            _ => m.map(|x| self.apply_scalar(x)),
        }
    }

    /// Derivative of the activation with respect to its input, evaluated at `x`
    /// (used by the small trainer; GELU/Swish use their analytic forms).
    pub fn derivative(&self, x: f32) -> f32 {
        match self {
            Activation::None => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Relu6 => {
                if x > 0.0 && x < 6.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Gelu => {
                // Derivative of the tanh approximation.
                let c = 0.797_884_6_f32;
                let a = c * (x + 0.044_715 * x * x * x);
                let t = a.tanh();
                let dadx = c * (1.0 + 3.0 * 0.044_715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dadx
            }
            Activation::Swish => {
                let s = sigmoid(x);
                s + x * s * (1.0 - s)
            }
        }
    }

    /// Whether this activation produces exact zeros (and therefore unstructured activation
    /// sparsity that TASD-A can read directly).
    pub fn induces_sparsity(&self) -> bool {
        matches!(self, Activation::Relu | Activation::Relu6)
    }
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Activation::None => "none",
            Activation::Relu => "relu",
            Activation::Relu6 => "relu6",
            Activation::Gelu => "gelu",
            Activation::Swish => "swish",
        };
        write!(f, "{s}")
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_tensor::{sparsity_degree, MatrixGenerator};

    #[test]
    fn relu_clips_negatives() {
        assert_eq!(Activation::Relu.apply_scalar(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(3.0), 3.0);
        assert_eq!(Activation::Relu6.apply_scalar(8.0), 6.0);
        assert_eq!(Activation::Relu6.apply_scalar(-1.0), 0.0);
    }

    #[test]
    fn gelu_and_swish_have_no_exact_zeros_on_generic_input() {
        let m = MatrixGenerator::seeded(1).normal(32, 32, 0.5, 1.0);
        for act in [Activation::Gelu, Activation::Swish] {
            let out = act.apply(&m);
            assert_eq!(out.count_zeros(), 0, "{act} produced exact zeros");
            assert!(!act.induces_sparsity());
        }
    }

    #[test]
    fn relu_induces_about_half_sparsity_on_zero_mean_input() {
        let m = MatrixGenerator::seeded(2).normal(64, 64, 0.0, 1.0);
        let out = Activation::Relu.apply(&m);
        let s = sparsity_degree(&out);
        assert!((0.4..0.6).contains(&s), "sparsity {s}");
        assert!(Activation::Relu.induces_sparsity());
    }

    #[test]
    fn none_is_identity() {
        let m = MatrixGenerator::seeded(3).normal(8, 8, 0.0, 1.0);
        assert_eq!(Activation::None.apply(&m), m);
        assert_eq!(Activation::None.derivative(5.0), 1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let xs = [-2.0f32, -0.5, 0.1, 0.7, 2.5];
        let eps = 1e-3f32;
        for act in [
            Activation::Relu,
            Activation::Gelu,
            Activation::Swish,
            Activation::Relu6,
        ] {
            for &x in &xs {
                // Skip the ReLU kink where the finite difference is ill-defined.
                if act.induces_sparsity() && x.abs() < 2.0 * eps {
                    continue;
                }
                let numeric = (act.apply_scalar(x + eps) - act.apply_scalar(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "{act} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Gelu.to_string(), "gelu");
        assert_eq!(Activation::default(), Activation::None);
    }
}
