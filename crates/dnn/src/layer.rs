//! Layer IR: CONV/FC layers and their GEMM lowering.

use crate::activation::Activation;
use std::fmt;
use tasd_tensor::Conv2dDims;

/// The kind of a compute layer that TASD can be applied to.
///
/// Only convolution and fully-connected layers are modelled because they dominate
/// execution time and both lower to matrix multiplication (paper §4.1). Attention
/// projections and MLP blocks of Transformers are expressed as [`LayerKind::Linear`]
/// layers with the appropriate `M` (token count) dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// A 2-D convolution, lowered to GEMM through im2col.
    Conv2d(Conv2dDims),
    /// A fully-connected (dense / linear) layer applied to `tokens` rows of activations.
    Linear {
        /// Input feature dimension (GEMM K).
        in_features: usize,
        /// Output feature dimension (GEMM N).
        out_features: usize,
        /// Number of rows the layer is applied to (batch × sequence length; GEMM M).
        tokens: usize,
    },
}

impl LayerKind {
    /// GEMM dimensions `(M, N, K)` of this layer for a batch of `batch` inputs.
    ///
    /// For convolutions, `M` scales with the number of output pixels per image times the
    /// batch; for linear layers the stored `tokens` count is per-input and also scales with
    /// the batch.
    pub fn gemm_dims(&self, batch: usize) -> (usize, usize, usize) {
        match self {
            LayerKind::Conv2d(dims) => dims.gemm_dims(batch),
            LayerKind::Linear {
                in_features,
                out_features,
                tokens,
            } => (tokens * batch, *out_features, *in_features),
        }
    }

    /// Shape of the weight matrix in the GEMM formulation, `(K, N)`:
    /// `K = in_channels·kh·kw` (conv) or `in_features` (linear), `N = out_channels` or
    /// `out_features`.
    pub fn weight_shape(&self) -> (usize, usize) {
        let (_, n, k) = self.gemm_dims(1);
        (k, n)
    }

    /// Number of weight parameters.
    pub fn weight_params(&self) -> usize {
        let (k, n) = self.weight_shape();
        k * n
    }

    /// Dense MAC count for a batch of `batch` inputs.
    pub fn dense_macs(&self, batch: usize) -> u64 {
        let (m, n, k) = self.gemm_dims(batch);
        m as u64 * n as u64 * k as u64
    }

    /// Returns `true` for convolution layers.
    pub fn is_conv(&self) -> bool {
        matches!(self, LayerKind::Conv2d(_))
    }
}

/// A named CONV/FC layer within a network, together with the activation that follows it
/// and the weight sparsity it was (notionally) pruned to.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Human-readable layer name (e.g. `"layer3.0.conv2"` or `"encoder.0.ffn.fc1"`).
    pub name: String,
    /// The layer's compute kind and geometry.
    pub kind: LayerKind,
    /// Activation function applied to this layer's output.
    pub activation: Activation,
    /// Weight sparsity degree this layer carries in the pruned model (0.0 for dense
    /// models). Per-layer values come from SparseZoo-like profiles in `tasd-models`.
    pub weight_sparsity: f64,
    /// Expected sparsity degree of this layer's *input* activations (0.0 when the
    /// preceding activation is GELU/Swish or the layer reads the network input).
    pub input_activation_sparsity: f64,
}

impl LayerSpec {
    /// Creates a convolution layer spec with dense weights and dense input activations.
    pub fn conv(name: impl Into<String>, dims: Conv2dDims, activation: Activation) -> Self {
        LayerSpec {
            name: name.into(),
            kind: LayerKind::Conv2d(dims),
            activation,
            weight_sparsity: 0.0,
            input_activation_sparsity: 0.0,
        }
    }

    /// Creates a linear layer spec with dense weights and dense input activations.
    pub fn linear(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        tokens: usize,
        activation: Activation,
    ) -> Self {
        LayerSpec {
            name: name.into(),
            kind: LayerKind::Linear {
                in_features,
                out_features,
                tokens,
            },
            activation,
            weight_sparsity: 0.0,
            input_activation_sparsity: 0.0,
        }
    }

    /// Sets the weight sparsity degree, returning the modified spec (builder style).
    #[must_use]
    pub fn with_weight_sparsity(mut self, sparsity: f64) -> Self {
        self.weight_sparsity = sparsity.clamp(0.0, 1.0);
        self
    }

    /// Sets the expected input-activation sparsity degree, returning the modified spec.
    #[must_use]
    pub fn with_input_activation_sparsity(mut self, sparsity: f64) -> Self {
        self.input_activation_sparsity = sparsity.clamp(0.0, 1.0);
        self
    }

    /// GEMM dimensions `(M, N, K)` for a batch of `batch` inputs.
    pub fn gemm_dims(&self, batch: usize) -> (usize, usize, usize) {
        self.kind.gemm_dims(batch)
    }

    /// Dense MAC count for a batch of `batch` inputs.
    pub fn dense_macs(&self, batch: usize) -> u64 {
        self.kind.dense_macs(batch)
    }

    /// Number of weight parameters of this layer.
    pub fn weight_params(&self) -> usize {
        self.kind.weight_params()
    }

    /// Number of non-zero weights implied by the recorded weight sparsity.
    pub fn weight_nonzeros(&self) -> usize {
        ((self.weight_params() as f64) * (1.0 - self.weight_sparsity)).round() as usize
    }
}

impl fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (m, n, k) = self.gemm_dims(1);
        write!(
            f,
            "{} [{} M{m}-N{n}-K{k}, act={}, w_sparsity={:.2}]",
            self.name,
            if self.kind.is_conv() { "conv" } else { "fc" },
            self.activation,
            self.weight_sparsity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_gemm_dims_match_im2col() {
        // Paper Table 4, dense ResNet-50 L2: M3136-N64-K576 (3x3x64 conv at 56x56).
        let dims = Conv2dDims::square(64, 64, 56, 3, 1, 1);
        let spec = LayerSpec::conv("rn50.l2", dims, Activation::Relu);
        assert_eq!(spec.gemm_dims(1), (3136, 64, 576));
        assert_eq!(spec.kind.weight_shape(), (576, 64));
        assert_eq!(spec.weight_params(), 576 * 64);
        assert!(spec.kind.is_conv());
    }

    #[test]
    fn linear_gemm_dims() {
        // Paper Table 4, dense BERT L2: M3072-N128-K768 -> FFN fc1 with 128 tokens.
        let spec = LayerSpec::linear("bert.ffn1", 768, 3072, 128, Activation::Gelu);
        assert_eq!(spec.gemm_dims(1), (128, 3072, 768));
        assert_eq!(spec.gemm_dims(4), (512, 3072, 768));
        assert_eq!(spec.kind.weight_shape(), (768, 3072));
        assert!(!spec.kind.is_conv());
    }

    #[test]
    fn macs_scale_with_batch() {
        let spec = LayerSpec::linear("fc", 128, 256, 16, Activation::Relu);
        assert_eq!(spec.dense_macs(1), 16 * 256 * 128);
        assert_eq!(spec.dense_macs(8), 8 * 16 * 256 * 128);
    }

    #[test]
    fn builder_clamps_sparsity() {
        let spec = LayerSpec::linear("fc", 8, 8, 1, Activation::None)
            .with_weight_sparsity(1.5)
            .with_input_activation_sparsity(-0.5);
        assert_eq!(spec.weight_sparsity, 1.0);
        assert_eq!(spec.input_activation_sparsity, 0.0);
        assert_eq!(spec.weight_nonzeros(), 0);
    }

    #[test]
    fn weight_nonzeros_rounds() {
        let spec = LayerSpec::linear("fc", 10, 10, 1, Activation::None).with_weight_sparsity(0.95);
        assert_eq!(spec.weight_nonzeros(), 5);
    }

    #[test]
    fn display_contains_dims_and_kind() {
        let spec = LayerSpec::linear("fc1", 768, 768, 128, Activation::Gelu);
        let s = spec.to_string();
        assert!(s.contains("fc1") && s.contains("M128") && s.contains("gelu"));
    }
}
