//! Per-layer workload descriptions consumed by the simulator.

use tasd::{ExecutionEngine, MatmulPlan, TasdConfig};
use tasd_dnn::LayerSpec;

/// Which operand of the GEMM is the "stationary"/decomposed side that structured-sparse
/// hardware skips on.
///
/// For weight-sparse workloads (TASD-W) the weights are the decomposed operand; for
/// dense-weight workloads with sparse activations (TASD-A) the activations are. The paper
/// never exploits both sides at once (§5.1), and neither does this model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandSide {
    /// The weight tensor is the skipped/decomposed operand (TASD-W).
    Weights,
    /// The activation tensor is the skipped/decomposed operand (TASD-A).
    Activations,
}

/// One GEMM layer as the accelerator sees it: dimensions, operand densities, and the TASD
/// configuration (if any) chosen for the decomposed side.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRun {
    /// Layer name, carried through to reports.
    pub name: String,
    /// GEMM dimensions `(M, N, K)`: output rows, output columns, reduction depth.
    pub dims: (usize, usize, usize),
    /// Density (1 − sparsity) of the weight tensor.
    pub weight_density: f64,
    /// Density (1 − sparsity) of the input-activation tensor.
    pub activation_density: f64,
    /// Which operand TASD (or native structured support) is applied to.
    pub tasd_side: OperandSide,
    /// The TASD configuration chosen for the decomposed operand; `None` means the layer
    /// runs densely (no decomposition).
    pub tasd_config: Option<TasdConfig>,
    /// The execution engine's plan for this layer's GEMM (backend per term, estimated
    /// effectual MACs), when the run was built through
    /// [`LayerRun::from_spec_with_engine`]. Purely informational for the analytical
    /// model — reports use it to show how software would execute the same layer.
    pub plan: Option<MatmulPlan>,
}

impl LayerRun {
    /// Builds a run from a [`LayerSpec`], taking densities from the spec's recorded weight
    /// and input-activation sparsity.
    pub fn from_spec(
        spec: &LayerSpec,
        batch: usize,
        tasd_side: OperandSide,
        tasd_config: Option<TasdConfig>,
    ) -> Self {
        LayerRun {
            name: spec.name.clone(),
            dims: spec.gemm_dims(batch),
            weight_density: 1.0 - spec.weight_sparsity,
            activation_density: 1.0 - spec.input_activation_sparsity,
            tasd_side,
            tasd_config,
            plan: None,
        }
    }

    /// Builds a run from a [`LayerSpec`] and attaches the execution engine's shape-only
    /// plan for the decomposed operand ([`ExecutionEngine::plan_dims`]): the decomposed
    /// tensor is treated as the engine's left-hand operand and the streamed dimension as
    /// the output width, so the plan's estimated MACs match the layer's effectual MACs.
    pub fn from_spec_with_engine(
        engine: &ExecutionEngine,
        spec: &LayerSpec,
        batch: usize,
        tasd_side: OperandSide,
        tasd_config: Option<TasdConfig>,
    ) -> Self {
        let mut run = Self::from_spec(spec, batch, tasd_side, tasd_config);
        let (m, n, k) = run.dims;
        // Engine convention: lhs is (rows × cols) multiplied into out_cols columns.
        // Weights (K×N) stream against M output columns; activations (M×K) against N.
        let (lhs_rows, lhs_cols, out_cols) = match run.tasd_side {
            OperandSide::Weights => (k, n, m),
            OperandSide::Activations => (m, k, n),
        };
        run.plan = Some(engine.plan_dims(
            lhs_rows,
            lhs_cols,
            out_cols,
            run.tasd_side_density(),
            run.tasd_config.as_ref(),
        ));
        run
    }

    /// Dense MAC count of this GEMM.
    pub fn dense_macs(&self) -> f64 {
        let (m, n, k) = self.dims;
        m as f64 * n as f64 * k as f64
    }

    /// Density of the operand on the decomposed/skipped side.
    pub fn tasd_side_density(&self) -> f64 {
        match self.tasd_side {
            OperandSide::Weights => self.weight_density,
            OperandSide::Activations => self.activation_density,
        }
    }

    /// Density of the *other* (streaming) operand.
    pub fn other_side_density(&self) -> f64 {
        match self.tasd_side {
            OperandSide::Weights => self.activation_density,
            OperandSide::Activations => self.weight_density,
        }
    }

    /// The fraction of the decomposed operand the hardware stores and computes on when the
    /// layer executes with its TASD configuration: `Σ nᵢ/mᵢ` of the configuration.
    ///
    /// Note that this is a property of the *configuration*, not of the tensor: an N:M
    /// engine always processes N operand slots per M-element block, whether or not some of
    /// the stored values happen to be zero. This is exactly why the paper's flexible menus
    /// matter — a 95 %-sparse layer on a 2:4-only engine still pays for 50 % of the dense
    /// compute, while a 1:8-capable engine pays only 12.5 %.
    ///
    /// Without a configuration the layer runs densely and the kept fraction is 1.
    pub fn kept_fraction(&self) -> f64 {
        match &self.tasd_config {
            None => 1.0,
            Some(cfg) => {
                if cfg.is_dense() {
                    1.0
                } else {
                    cfg.kept_density().clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Number of TASD terms this layer executes (1 when running densely).
    pub fn num_terms(&self) -> usize {
        match &self.tasd_config {
            None => 1,
            Some(cfg) => cfg.order().max(1),
        }
    }

    /// Size of the decomposed-side operand tensor in elements (`M·K` for activations,
    /// `K·N` for weights).
    pub fn tasd_side_elements(&self) -> f64 {
        let (m, n, k) = self.dims;
        match self.tasd_side {
            OperandSide::Weights => k as f64 * n as f64,
            OperandSide::Activations => m as f64 * k as f64,
        }
    }

    /// Size of the streaming-side operand tensor in elements.
    pub fn other_side_elements(&self) -> f64 {
        let (m, n, k) = self.dims;
        match self.tasd_side {
            OperandSide::Weights => m as f64 * k as f64,
            OperandSide::Activations => k as f64 * n as f64,
        }
    }

    /// Output tensor size in elements (`M·N`).
    pub fn output_elements(&self) -> f64 {
        let (m, n, _) = self.dims;
        m as f64 * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasd_dnn::Activation;

    fn spec() -> LayerSpec {
        LayerSpec::linear("fc", 512, 256, 64, Activation::Relu)
            .with_weight_sparsity(0.9)
            .with_input_activation_sparsity(0.5)
    }

    #[test]
    fn from_spec_maps_densities() {
        let run = LayerRun::from_spec(&spec(), 2, OperandSide::Weights, None);
        assert_eq!(run.dims, (128, 256, 512));
        assert!((run.weight_density - 0.1).abs() < 1e-12);
        assert!((run.activation_density - 0.5).abs() < 1e-12);
        assert_eq!(run.dense_macs(), 128.0 * 256.0 * 512.0);
        assert_eq!(run.kept_fraction(), 1.0);
        assert_eq!(run.num_terms(), 1);
    }

    #[test]
    fn kept_fraction_follows_the_configuration_not_the_tensor() {
        let mut run = LayerRun::from_spec(&spec(), 1, OperandSide::Weights, None);
        run.tasd_config = Some(TasdConfig::parse("4:8").unwrap());
        // The weights are only 10% dense, but a 4:8 engine still processes 4 slots per
        // 8-element block: the hardware-kept fraction is the configuration's density.
        assert!((run.kept_fraction() - 0.5).abs() < 1e-12);
        run.tasd_config = Some(TasdConfig::parse("1:16").unwrap());
        assert!((run.kept_fraction() - 0.0625).abs() < 1e-12);
        run.tasd_config = Some(TasdConfig::dense(8));
        assert_eq!(run.kept_fraction(), 1.0);
    }

    #[test]
    fn activation_side_uses_activation_density() {
        let mut run = LayerRun::from_spec(&spec(), 1, OperandSide::Activations, None);
        run.tasd_config = Some(TasdConfig::parse("4:8+1:8").unwrap());
        assert!((run.tasd_side_density() - 0.5).abs() < 1e-12);
        assert!((run.kept_fraction() - 0.625).abs() < 1e-12);
        assert_eq!(run.num_terms(), 2);
        assert!((run.other_side_density() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn from_spec_with_engine_attaches_a_matching_plan() {
        let engine = ExecutionEngine::global();
        let cfg = TasdConfig::parse("4:8+1:8").unwrap();
        let run = LayerRun::from_spec_with_engine(
            engine,
            &spec(),
            1,
            OperandSide::Weights,
            Some(cfg.clone()),
        );
        let plan = run.plan.as_ref().expect("engine-built runs carry a plan");
        // Weights are only 10% dense, so the first term absorbs all of it and the second
        // is empty: the plan's MAC estimate tracks the tensor, the hardware kept fraction
        // tracks the configuration.
        assert_eq!(plan.num_terms(), cfg.order());
        let planned_fraction = plan.compute_fraction();
        // (estimated MACs are truncated to whole integers, hence the loose tolerance)
        assert!(
            (planned_fraction - 0.1).abs() < 1e-4,
            "planned {planned_fraction}"
        );
        assert!(planned_fraction <= run.kept_fraction());
        // Dense (no-config) runs plan a single undecomposed term.
        let dense = LayerRun::from_spec_with_engine(engine, &spec(), 1, OperandSide::Weights, None);
        assert_eq!(dense.plan.as_ref().unwrap().num_terms(), 1);
        // The plain constructor attaches no plan.
        assert!(LayerRun::from_spec(&spec(), 1, OperandSide::Weights, None)
            .plan
            .is_none());
    }

    #[test]
    fn operand_element_counts() {
        let run = LayerRun::from_spec(&spec(), 1, OperandSide::Weights, None);
        let (m, n, k) = run.dims;
        assert_eq!(run.tasd_side_elements(), (k * n) as f64);
        assert_eq!(run.other_side_elements(), (m * k) as f64);
        assert_eq!(run.output_elements(), (m * n) as f64);
        let act_run = LayerRun::from_spec(&spec(), 1, OperandSide::Activations, None);
        assert_eq!(act_run.tasd_side_elements(), (m * k) as f64);
    }
}
