//! The paper's representative layers (Table 4) and workload definitions (§5.1).

use tasd_dnn::NetworkSpec;

/// The four workloads evaluated in the paper's main experiments (Fig. 12/13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Dense ResNet-50 from TorchVision (ReLU-based: dense weights, sparse activations).
    DenseResNet50,
    /// 95 % unstructured-sparse ResNet-50 from SparseZoo (sparse weights and activations).
    SparseResNet50,
    /// Dense BERT-base (GeLU-based: dense weights, dense activations).
    DenseBert,
    /// Unstructured-sparse BERT-base (sparse weights, dense activations).
    SparseBert,
}

impl Workload {
    /// All four workloads, in the paper's presentation order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::DenseResNet50,
            Workload::DenseBert,
            Workload::SparseResNet50,
            Workload::SparseBert,
        ]
    }

    /// Display name used in tables and figure output.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::DenseResNet50 => "Dense ResNet50",
            Workload::SparseResNet50 => "Sparse ResNet50",
            Workload::DenseBert => "Dense BERT",
            Workload::SparseBert => "Sparse BERT",
        }
    }

    /// Whether the workload's weights are unstructured sparse.
    pub fn has_sparse_weights(&self) -> bool {
        matches!(self, Workload::SparseResNet50 | Workload::SparseBert)
    }

    /// Whether the workload's activations carry ReLU-induced sparsity.
    pub fn has_sparse_activations(&self) -> bool {
        matches!(self, Workload::DenseResNet50 | Workload::SparseResNet50)
    }

    /// Builds the annotated network spec for this workload: the base model with the
    /// appropriate SparseZoo-like weight profile (95 % for the sparse variants, as in the
    /// paper) and ReLU activation-sparsity profile.
    pub fn network(&self, seed: u64) -> NetworkSpec {
        match self {
            Workload::DenseResNet50 => crate::profiles::dense_model_with_activation_sparsity(
                &crate::resnet::resnet50(),
                seed,
            ),
            Workload::SparseResNet50 => {
                crate::profiles::sparse_model(&crate::resnet::resnet50(), 0.95, seed)
            }
            Workload::DenseBert => crate::profiles::dense_model_with_activation_sparsity(
                &crate::transformer::bert_base(128),
                seed,
            ),
            Workload::SparseBert => {
                crate::profiles::sparse_model(&crate::transformer::bert_base(128), 0.90, seed)
            }
        }
    }
}

/// One representative layer from Table 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepresentativeLayer {
    /// Short label used in the per-layer bars of Fig. 12 ("L1", "L2", "L3").
    pub label: &'static str,
    /// GEMM dimensions as `(M, N, K)` in the `(output rows, output cols, reduction)`
    /// convention of this repository.
    pub gemm_dims: (usize, usize, usize),
}

/// The representative layers of a workload (paper Table 4): one early, one mid, one late
/// layer. ResNet-50 layers are shared between the dense and sparse variants, as are the
/// BERT layers.
pub fn representative_layers(workload: Workload) -> Vec<RepresentativeLayer> {
    match workload {
        Workload::DenseResNet50 | Workload::SparseResNet50 => vec![
            RepresentativeLayer {
                label: "L1",
                gemm_dims: (784, 128, 1152),
            },
            RepresentativeLayer {
                label: "L2",
                gemm_dims: (3136, 64, 576),
            },
            RepresentativeLayer {
                label: "L3",
                gemm_dims: (196, 256, 2304),
            },
        ],
        Workload::DenseBert | Workload::SparseBert => vec![
            RepresentativeLayer {
                label: "L1",
                gemm_dims: (128, 768, 768),
            },
            RepresentativeLayer {
                label: "L2",
                gemm_dims: (128, 3072, 768),
            },
            RepresentativeLayer {
                label: "L3",
                gemm_dims: (128, 768, 3072),
            },
        ],
    }
}

/// Finds the name of a layer in `spec` whose GEMM dimensions match a representative layer.
pub fn find_layer_by_dims(spec: &NetworkSpec, dims: (usize, usize, usize)) -> Option<String> {
    spec.iter()
        .find(|l| l.gemm_dims(1) == dims)
        .map(|l| l.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_layers_exist_in_their_models() {
        for wl in Workload::all() {
            let spec = wl.network(1);
            for rep in representative_layers(wl) {
                assert!(
                    find_layer_by_dims(&spec, rep.gemm_dims).is_some(),
                    "{:?} {} missing {:?}",
                    wl,
                    rep.label,
                    rep.gemm_dims
                );
            }
        }
    }

    #[test]
    fn workload_sparsity_flags() {
        assert!(Workload::SparseResNet50.has_sparse_weights());
        assert!(Workload::SparseResNet50.has_sparse_activations());
        assert!(!Workload::DenseBert.has_sparse_weights());
        assert!(!Workload::DenseBert.has_sparse_activations());
        assert!(Workload::DenseResNet50.has_sparse_activations());
        assert!(Workload::SparseBert.has_sparse_weights());
        assert!(!Workload::SparseBert.has_sparse_activations());
    }

    #[test]
    fn workload_networks_match_their_profiles() {
        let sparse_rn = Workload::SparseResNet50.network(3);
        assert!((sparse_rn.overall_weight_sparsity() - 0.95).abs() < 0.01);
        let dense_rn = Workload::DenseResNet50.network(3);
        assert_eq!(dense_rn.overall_weight_sparsity(), 0.0);
        let dense_bert = Workload::DenseBert.network(3);
        assert!(dense_bert
            .layers
            .iter()
            .all(|l| l.input_activation_sparsity == 0.0));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Workload::all().iter().map(|w| w.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
